type time = int64

exception Not_in_process

(* What a queued event does when its time comes.  A [Call] runs outside
   any process; [Start] enters a freshly spawned process; [Resume] hands
   control back to a delayed one and [Wake] to a suspended one.  A
   [Wake] is also the suspended process's waker: it is queued as is, so
   waking allocates nothing, and [fired] makes every wake after the
   first a no-op. *)
type event =
  | Empty
  | Call of (unit -> unit)
  | Start of (unit -> unit)
  | Resume of (unit, unit) Effect.Deep.continuation
  | Wake of {
      engine : t;
      k : (unit, unit) Effect.Deep.continuation;
      mutable fired : bool;
    }

and t = {
  mutable clock : int;
  (* [clock] boxed once per distinct value, so [now] allocates nothing. *)
  mutable now : time;
  mutable seq : int;
  (* Pending events: a binary min-heap on (time, seq) over parallel
     arrays, so push, pop and peek allocate nothing. *)
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : event array;
  mutable size : int;
  mutable stopped : bool;
  (* Operands of the payload-free [Delay] and [Suspend] effects. *)
  mutable delay_by : int;
  mutable register : event -> unit;
  self : t option;
  stats : Stats.t;
}

type _ Effect.t += Delay : unit Effect.t | Suspend : unit Effect.t

(* The ambient engine for the currently running process, so the
   argument-free [delay]/[suspend] API works. *)
let current : t option ref = ref None

type waker = event

let no_register (_ : waker) = ()

let idle_waker = Empty

let create () =
  let cap = 256 in
  let rec t =
    {
      clock = 0;
      now = 0L;
      seq = 0;
      times = Array.make cap 0;
      seqs = Array.make cap 0;
      slots = Array.make cap Empty;
      size = 0;
      stopped = false;
      delay_by = 0;
      register = no_register;
      self = Some t;
      stats = Stats.create ();
    }
  in
  t

let now t = t.now

let stats t = t.stats

(* Simulated times are [int64] at the API and native [int] inside.
   Values beyond the 63-bit range saturate instead of wrapping. *)
let ticks (x : time) =
  if Int64.compare x (Int64.of_int max_int) >= 0 then max_int
  else if Int64.compare x (Int64.of_int min_int) <= 0 then min_int
  else Int64.to_int x

let later t d = if d > max_int - t.clock then max_int else t.clock + d

let set_clock t time =
  if time <> t.clock then begin
    t.clock <- time;
    t.now <- Int64.of_int time
  end

(* {2 Event heap} *)

let before t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let tm = t.times.(i) and sq = t.seqs.(i) and ev = t.slots.(i) in
  t.times.(i) <- t.times.(j);
  t.seqs.(i) <- t.seqs.(j);
  t.slots.(i) <- t.slots.(j);
  t.times.(j) <- tm;
  t.seqs.(j) <- sq;
  t.slots.(j) <- ev

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.size then begin
    let r = l + 1 in
    let m = if r < t.size && before t r l then r else l in
    if before t m i then begin
      swap t i m;
      sift_down t m
    end
  end

let grow t =
  let cap = 2 * Array.length t.times in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots Empty

(* Events never run before the current time: a past [time] means "now". *)
let schedule t time ev =
  if t.size = Array.length t.times then grow t;
  let i = t.size in
  t.seq <- t.seq + 1;
  t.times.(i) <- (if time < t.clock then t.clock else time);
  t.seqs.(i) <- t.seq;
  t.slots.(i) <- ev;
  t.size <- i + 1;
  sift_up t i

(* Remove the earliest event; its slot is cleared so the heap does not
   keep a finished continuation alive. *)
let pop t =
  let ev = t.slots.(0) in
  let last = t.size - 1 in
  t.size <- last;
  t.times.(0) <- t.times.(last);
  t.seqs.(0) <- t.seqs.(last);
  t.slots.(0) <- t.slots.(last);
  t.slots.(last) <- Empty;
  sift_down t 0;
  ev

let at t time f = schedule t (ticks time) (Call f)

let after t d f = schedule t (later t (ticks d)) (Call f)

let pending t = t.size

let engine_of_ambient () =
  match !current with None -> raise Not_in_process | Some t -> t

let delay d =
  (* Outside any process (e.g. environment boot code running before the
     simulation starts) time cannot advance: treat the charge as free
     rather than failing — setup costs are not part of any measurement
     window.  Suspension, by contrast, is always an error there. *)
  match !current with
  | None -> ()
  | Some t ->
      t.delay_by <- ticks d;
      Effect.perform Delay

let yield () = delay 0L

let suspend register =
  let t = engine_of_ambient () in
  t.register <- register;
  Effect.perform Suspend

let wake = function
  | Wake w as ev when not w.fired ->
      w.fired <- true;
      schedule w.engine w.engine.clock ev
  | Wake _ | Empty | Call _ | Start _ | Resume _ -> ()

let stop t = t.stopped <- true

let spawn t ?(name = "proc") f =
  let open Effect.Deep in
  (* Built once per process, so a suspension allocates only its
     continuation and the event that resumes it. *)
  let on_delay =
    Some
      (fun (k : (unit, unit) continuation) ->
        schedule t (later t t.delay_by) (Resume k))
  in
  let on_suspend =
    Some
      (fun (k : (unit, unit) continuation) ->
        let register = t.register in
        t.register <- no_register;
        register (Wake { engine = t; k; fired = false }))
  in
  let handler =
    {
      retc = ignore;
      exnc =
        (fun e ->
          let bt = Printexc.get_raw_backtrace () in
          Logs.err (fun m ->
              m "process %s died: %s" name (Printexc.to_string e));
          Printexc.raise_with_backtrace e bt);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Delay -> on_delay
          | Suspend -> on_suspend
          | _ -> None);
    }
  in
  schedule t t.clock (Start (fun () -> match_with f () handler))

let run ?until t =
  t.stopped <- false;
  let horizon = match until with None -> max_int | Some u -> ticks u in
  (* Callbacks run with the caller's ambient engine, processes with
     their own; [current] is back to [saved] after every event. *)
  let saved = !current in
  let rec loop () =
    if (not t.stopped) && t.size > 0 then
      if t.times.(0) > horizon then
        (* Leave future events queued so a later [run] can resume; the
           clock only ever moves forward. *)
        (if horizon > t.clock then set_clock t horizon)
      else begin
        set_clock t t.times.(0);
        (match pop t with
        | Call f -> f ()
        | Start f ->
            current := t.self;
            f ()
        | Resume k | Wake { k; _ } ->
            current := t.self;
            Effect.Deep.continue k ()
        | Empty -> assert false);
        current := saved;
        loop ()
      end
  in
  match loop () with
  | () -> ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      current := saved;
      Printexc.raise_with_backtrace e bt

let in_process () = Option.is_some !current
