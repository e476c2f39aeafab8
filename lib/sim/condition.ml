(* Waiters live in a ring buffer of wakers (capacity a power of two,
   grown on demand), and each condition builds its registration closure
   once, so parking and waking allocate nothing here. *)
type t = {
  mutable wakers : Engine.waker array;
  mutable head : int;
  mutable len : int;
  register : Engine.waker -> unit;
}

let grow t =
  let cap = Array.length t.wakers in
  let bigger = Array.make (max 2 (2 * cap)) Engine.idle_waker in
  for i = 0 to t.len - 1 do
    bigger.(i) <- t.wakers.((t.head + i) land (cap - 1))
  done;
  t.wakers <- bigger;
  t.head <- 0

let add t waker =
  if t.len = Array.length t.wakers then grow t;
  t.wakers.((t.head + t.len) land (Array.length t.wakers - 1)) <- waker;
  t.len <- t.len + 1

let create () =
  let rec t =
    { wakers = [||]; head = 0; len = 0; register = (fun w -> add t w) }
  in
  t

let take t =
  let waker = t.wakers.(t.head) in
  t.wakers.(t.head) <- Engine.idle_waker;
  t.head <- (t.head + 1) land (Array.length t.wakers - 1);
  t.len <- t.len - 1;
  waker

let wait t = Engine.suspend t.register

let signal t = if t.len > 0 then Engine.wake (take t)

(* Only the waiters present on entry: waking only schedules a process,
   so none can register anew while the buffer drains. *)
let broadcast t =
  for _ = 1 to t.len do
    Engine.wake (take t)
  done

let waiters t = t.len

type set = Engine.waker -> unit

let set ts =
  let rec register_all waker = function
    | [] -> ()
    | t :: rest ->
        add t waker;
        register_all waker rest
  in
  fun waker -> register_all waker ts

let wait_set s = Engine.suspend s

let wait_any ts = wait_set (set ts)
