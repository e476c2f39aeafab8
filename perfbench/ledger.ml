(* The benchmark's own op ledger: one slot per generated op, holding
   when it was due, how it ended and when.  Latencies are exact
   simulated cycles measured from the due time (never the log2
   buckets of Obs.Metrics), so percentiles can show changes far
   smaller than 2x.

   Every op ends in exactly one fate:
   - [Ok]: completed, and its output was verified;
   - [Failed]: missed its deadline, returned an error, or returned
     output that did not verify.  It counts as taking the deadline;
   - [Shed]: refused at a layer that accounts for it (a NIC queue
     overflowing at saturation).  It has no latency and is not a
     failure; it is reported through the per-layer drop counters. *)

type fate = Pending | Ok | Failed | Shed

type t = {
  due : int array;  (** simulated cycle the op was due *)
  fin : int array;  (** simulated cycle it completed ([-1] while pending) *)
  fate : fate array;
  bytes : int array;  (** verified payload bytes the op delivered *)
  deadline : int;  (** cycles after [due] at which the op fails *)
  host_start : float array;  (** host clock at {!start}, traced runs only *)
  host_fin : float array;
  traced : bool;
  mutable resolved : int;
  mutable on_all_resolved : unit -> unit;
}

let create ?(traced = false) ~n ~deadline () =
  let hn = if traced then n else 0 in
  {
    due = Array.make n 0;
    fin = Array.make n (-1);
    fate = Array.make n Pending;
    bytes = Array.make n 0;
    deadline;
    host_start = Array.make hn 0.;
    host_fin = Array.make hn 0.;
    traced;
    resolved = 0;
    on_all_resolved = ignore;
  }

let length t = Array.length t.due

let set_due t i cycles = t.due.(i) <- cycles

(* The client begins working on op [i]; only the traced run reads the
   host clock here. *)
let start t i = if t.traced then t.host_start.(i) <- Unix.gettimeofday ()

let resolve t i fate ~now =
  if t.fate.(i) = Pending then begin
    t.fate.(i) <- fate;
    t.fin.(i) <- now;
    if t.traced then t.host_fin.(i) <- Unix.gettimeofday ();
    t.resolved <- t.resolved + 1;
    if t.resolved = length t then t.on_all_resolved ()
  end

let complete t i ~now ~bytes =
  if now - t.due.(i) > t.deadline then resolve t i Failed ~now
  else begin
    t.bytes.(i) <- bytes;
    resolve t i Ok ~now
  end

let fail t i ~now = resolve t i Failed ~now

let shed t i ~now = resolve t i Shed ~now

(* A verification that runs after the op completed can still fail it. *)
let refute t i =
  if t.fate.(i) = Ok then begin
    t.fate.(i) <- Failed;
    t.bytes.(i) <- 0
  end

(* Ops still pending when the run ended (horizon or host cap) fail. *)
let fail_pending t ~now =
  Array.iteri (fun i f -> if f = Pending then fail t i ~now) t.fate

let count t fate =
  Array.fold_left (fun n f -> if f = fate then n + 1 else n) 0 t.fate

let pending t = count t Pending

let attempted t = length t

let failed t = count t Failed

let completed t = count t Ok

let shed_count t = count t Shed

let verified_bytes t = Array.fold_left ( + ) 0 t.bytes

(* Latency samples: completed ops at their measured latency, failed
   ops at the deadline, shed ops excluded. *)
let samples t =
  let out = ref [] in
  for i = length t - 1 downto 0 do
    match t.fate.(i) with
    | Ok -> out := (t.fin.(i) - t.due.(i)) :: !out
    | Failed | Pending -> out := t.deadline :: !out
    | Shed -> ()
  done;
  let a = Array.of_list !out in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array: the ceil(p*n)-th
   smallest sample. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* At least ten samples must lie beyond a reported percentile. *)
let supports sorted p =
  float_of_int (Array.length sorted) *. (1. -. p) >= 10.

(* Simulated span the ops cover: first due to last completion or
   failure.  Shed ops are classified when the run ends, so their
   resolution time says nothing about the ops. *)
let span t =
  let first = Array.fold_left min max_int t.due in
  let last = ref 0 in
  Array.iteri (fun i f -> if f <> Shed then last := max !last t.fin.(i)) t.fate;
  max 1 (!last - first)
