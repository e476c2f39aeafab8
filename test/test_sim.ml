(* Tests for the discrete-event engine, conditions, mailboxes, locks,
   stats and the RNG. *)

open Sim

let check = Alcotest.(check int)

let check64 = Alcotest.(check int64)

let check_bool = Alcotest.(check bool)

(* {1 Engine} *)

let test_engine_time_advances () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Engine.delay 100L;
      log := (Engine.now e, "a") :: !log;
      Engine.delay 50L;
      log := (Engine.now e, "b") :: !log);
  Engine.run e;
  Alcotest.(check (list (pair int64 string)))
    "timeline"
    [ (100L, "a"); (150L, "b") ]
    (List.rev !log)

let test_engine_interleaving () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Engine.delay 10L;
      log := "p1@10" :: !log;
      Engine.delay 20L;
      log := "p1@30" :: !log);
  Engine.spawn e (fun () ->
      Engine.delay 20L;
      log := "p2@20" :: !log);
  Engine.run e;
  Alcotest.(check (list string))
    "interleave" [ "p1@10"; "p2@20"; "p1@30" ] (List.rev !log)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.spawn e (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let ran = ref 0 in
  Engine.spawn e (fun () ->
      let rec loop () =
        Engine.delay 10L;
        incr ran;
        loop ()
      in
      loop ());
  Engine.run ~until:100L e;
  check "horizon caps iterations" 10 !ran;
  check64 "clock at horizon" 100L (Engine.now e);
  (* Resumable after the horizon. *)
  Engine.run ~until:200L e;
  check "resumed" 20 !ran

let test_engine_stop () =
  let e = Engine.create () in
  let ran = ref 0 in
  Engine.spawn e (fun () ->
      let rec loop () =
        Engine.delay 10L;
        incr ran;
        if !ran = 3 then Engine.stop e;
        loop ()
      in
      loop ());
  Engine.run e;
  check "stopped after 3" 3 !ran

let test_engine_at_callback () =
  let e = Engine.create () in
  let fired = ref 0L and inside = ref true in
  Engine.spawn e (fun () ->
      Engine.at e 500L (fun () ->
          fired := Engine.now e;
          inside := Engine.in_process ()));
  Engine.run e;
  check64 "at fires at time" 500L !fired;
  check_bool "callback runs outside any process" false !inside

let test_engine_past_at_runs_now () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.spawn e (fun () ->
      Engine.delay 100L;
      Engine.at e 50L (fun () -> fired := true));
  Engine.run e;
  check_bool "past callback still runs" true !fired

let test_engine_exception_propagates () =
  let e = Engine.create () in
  Engine.spawn e (fun () -> failwith "boom");
  Alcotest.check_raises "escapes run" (Failure "boom") (fun () -> Engine.run e);
  check_bool "ambient engine restored" false (Engine.in_process ())

let test_engine_delay_outside_process () =
  (* Setup code outside processes may charge; it is a no-op. *)
  Engine.delay 1000L;
  ()

let test_engine_suspend_outside_raises () =
  match Engine.suspend (fun _ -> ()) with
  | () -> Alcotest.fail "suspend outside process must raise"
  | exception Engine.Not_in_process -> ()

let test_engine_stats () =
  let e = Engine.create () in
  Stats.incr (Engine.stats e) "x";
  check "stats attached" 1 (Stats.get (Engine.stats e) "x")

(* Two [run ~until] cut-offs, the second before the first: the clock must
   not move back. *)
let test_engine_until_monotone () =
  let e = Engine.create () in
  Engine.at e 100L ignore;
  Engine.at e 1000L ignore;
  Engine.run ~until:500L e;
  check64 "at first horizon" 500L (Engine.now e);
  Engine.run ~until:200L e;
  check64 "earlier horizon leaves the clock alone" 500L (Engine.now e);
  check "later event still queued" 1 (Engine.pending e)

(* Horizons and delays past the 63-bit range saturate; they never wrap
   into the past. *)
let test_engine_huge_times_saturate () =
  let e = Engine.create () in
  let woke = ref 0L in
  Engine.spawn e (fun () ->
      Engine.delay 10L;
      Engine.delay Int64.max_int;
      woke := Engine.now e);
  Engine.run ~until:Int64.max_int e;
  check64 "saturated delay wakes at the end of time"
    (Int64.of_int max_int) !woke;
  let e = Engine.create () in
  let fired = ref false in
  Engine.at e 0x4000_0000_0000_0000L (fun () -> fired := true);
  Engine.run ~until:0x4000_0000_0000_0000L e;
  check_bool "2^62 horizon reaches a 2^62 event" true !fired;
  let e = Engine.create () in
  Engine.at e 1000L ignore;
  Engine.run ~until:Int64.min_int e;
  check64 "negative horizon leaves the clock at zero" 0L (Engine.now e);
  check "event kept" 1 (Engine.pending e)

(* {2 Ordering property}

   Random schedules of [at] callbacks and processes that [delay] and
   [yield], with nested scheduling from inside events (so ties, past
   times and zero delays all occur), must run in the order of a
   reference scheduler: a list kept in insertion order, stably sorted by
   max(time, now at scheduling) before every pick. *)

type action = At of int * action list | Spawn of step list

and step = Delay of int | Yield | Do of action

let gen_schedule =
  let open QCheck.Gen in
  let time = oneof [ int_range 0 40; int_range 0 300; return 0 ] in
  let dly = oneofl [ 0; 0; 1; 5; 10; 40 ] in
  let rec action depth =
    let nested =
      if depth = 0 then return []
      else list_size (int_range 0 2) (action (depth - 1))
    in
    let leaf = [ (4, map (fun d -> Delay d) dly); (2, return Yield) ] in
    let step =
      if depth = 0 then frequency leaf
      else frequency ((1, map (fun a -> Do a) (action (depth - 1))) :: leaf)
    in
    frequency
      [
        (1, map2 (fun t n -> At (t, n)) time nested);
        (1, map (fun s -> Spawn s) (list_size (int_range 0 4) step));
      ]
  in
  list_size (int_range 1 8) (action 2)

let show_list show l = String.concat ";" (List.map show l)

let rec show_action = function
  | At (t, n) -> Printf.sprintf "At(%d,[%s])" t (show_list show_action n)
  | Spawn s -> Printf.sprintf "Spawn[%s]" (show_list show_step s)

and show_step = function
  | Delay d -> Printf.sprintf "D%d" d
  | Yield -> "Y"
  | Do a -> show_action a

(* Each log entry is (event id, resumption number, time). *)
let engine_order actions =
  let e = Engine.create () in
  let ids = ref 0 and log = ref [] in
  let note id k = log := (id, k, Int64.to_int (Engine.now e)) :: !log in
  let rec issue = function
    | At (t, nested) ->
        incr ids;
        let id = !ids in
        Engine.at e (Int64.of_int t) (fun () ->
            note id 0;
            List.iter issue nested)
    | Spawn steps ->
        incr ids;
        let id = !ids in
        Engine.spawn e (fun () ->
            note id 0;
            let k = ref 0 in
            let resumed () =
              incr k;
              note id !k
            in
            List.iter
              (function
                | Do a -> issue a
                | Delay d ->
                    Engine.delay (Int64.of_int d);
                    resumed ()
                | Yield ->
                    Engine.yield ();
                    resumed ())
              steps)
  in
  List.iter issue actions;
  Engine.run e;
  List.rev !log

let reference_order actions =
  let now = ref 0 and ids = ref 0 and queue = ref [] and log = ref [] in
  let push time ev = queue := !queue @ [ (max time !now, ev) ] in
  let rec issue = function
    | At (t, nested) ->
        incr ids;
        push t (`Call (!ids, nested))
    | Spawn steps ->
        incr ids;
        push !now (`Proc (!ids, 0, steps))
  and resume id k = function
    | [] -> ()
    | Do a :: rest ->
        issue a;
        resume id k rest
    | Delay d :: rest -> push (!now + d) (`Proc (id, k + 1, rest))
    | Yield :: rest -> push !now (`Proc (id, k + 1, rest))
  in
  List.iter issue actions;
  let rec loop () =
    match List.stable_sort (fun (a, _) (b, _) -> compare a b) !queue with
    | [] -> ()
    | (time, ev) :: rest ->
        queue := rest;
        now := time;
        (match ev with
        | `Call (id, nested) ->
            log := (id, 0, time) :: !log;
            List.iter issue nested
        | `Proc (id, k, steps) ->
            log := (id, k, time) :: !log;
            resume id k steps);
        loop ()
  in
  loop ();
  List.rev !log

let prop_engine_order =
  QCheck.Test.make ~count:500
    ~name:"engine: events run in (max(time, now), insertion) order"
    (QCheck.make
       ~print:(fun l -> String.concat " " (List.map show_action l))
       gen_schedule)
    (fun actions -> engine_order actions = reference_order actions)

(* {2 Allocation}

   The steady-state cost of the scheduler itself, in minor-heap words.
   A suspension allocates its continuation and the event that resumes
   it; the clock is boxed once per distinct time. *)

let round_trips = 100_000

let words_per_round_trip body =
  let e = Engine.create () in
  body e;
  let w0 = Gc.minor_words () in
  Engine.run e;
  (Gc.minor_words () -. w0) /. float_of_int round_trips

let test_engine_delay_allocation () =
  let words =
    words_per_round_trip (fun e ->
        for _ = 1 to 2 do
          Engine.spawn e (fun () ->
              for _ = 1 to round_trips / 2 do
                Engine.delay 1L
              done)
        done)
  in
  if words > 8. then
    Alcotest.failf "delay round trip allocates %.2f words (budget 8)" words

let test_condition_allocation () =
  let words =
    words_per_round_trip (fun e ->
        let c = Condition.create () in
        Engine.spawn e (fun () ->
            for _ = 1 to round_trips do
              Condition.wait c
            done);
        Engine.spawn e (fun () ->
            for _ = 1 to round_trips do
              Engine.delay 1L;
              Condition.signal c
            done))
  in
  if words > 45. then
    Alcotest.failf "wait+signal+delay allocates %.2f words (budget 45)" words

(* {1 Condition} *)

let test_condition_signal_wakes_one () =
  let e = Engine.create () in
  let c = Condition.create () in
  let woken = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn e (fun () ->
        Condition.wait c;
        incr woken)
  done;
  Engine.spawn e (fun () ->
      Engine.delay 10L;
      Condition.signal c);
  Engine.run e;
  check "one woken" 1 !woken

let test_condition_broadcast_wakes_all () =
  let e = Engine.create () in
  let c = Condition.create () in
  let woken = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn e (fun () ->
        Condition.wait c;
        incr woken)
  done;
  Engine.spawn e (fun () ->
      Engine.delay 10L;
      Condition.broadcast c);
  Engine.run e;
  check "all woken" 3 !woken

let test_condition_wait_any () =
  let e = Engine.create () in
  let c1 = Condition.create () and c2 = Condition.create () in
  let woken = ref false in
  Engine.spawn e (fun () ->
      Condition.wait_any [ c1; c2 ];
      woken := true);
  Engine.spawn e (fun () ->
      Engine.delay 5L;
      Condition.broadcast c2);
  Engine.run e;
  check_bool "woken via second condition" true !woken

let test_condition_signal_no_waiters () =
  let c = Condition.create () in
  Condition.signal c;
  Condition.broadcast c;
  check "no waiters" 0 (Condition.waiters c)

(* {1 Mailbox} *)

let test_mailbox_fifo () =
  let e = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Engine.spawn e (fun () ->
      for i = 1 to 5 do
        Mailbox.put mb i
      done);
  Engine.spawn e (fun () ->
      for _ = 1 to 5 do
        got := Mailbox.get mb :: !got
      done);
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_mailbox_blocking_get () =
  let e = Engine.create () in
  let mb = Mailbox.create () in
  let got_at = ref 0L in
  Engine.spawn e (fun () ->
      ignore (Mailbox.get mb);
      got_at := Engine.now e);
  Engine.spawn e (fun () ->
      Engine.delay 100L;
      Mailbox.put mb ());
  Engine.run e;
  check64 "blocked until put" 100L !got_at

let test_mailbox_capacity_blocks_put () =
  let e = Engine.create () in
  let mb = Mailbox.create ~capacity:2 () in
  let done_at = ref 0L in
  Engine.spawn e (fun () ->
      Mailbox.put mb 1;
      Mailbox.put mb 2;
      Mailbox.put mb 3;
      (* blocks *)
      done_at := Engine.now e);
  Engine.spawn e (fun () ->
      Engine.delay 50L;
      ignore (Mailbox.get mb));
  Engine.run e;
  check64 "third put blocked" 50L !done_at

let test_mailbox_try_put_full () =
  let mb = Mailbox.create ~capacity:1 () in
  check_bool "accepts" true (Mailbox.try_put mb 1);
  check_bool "rejects when full" false (Mailbox.try_put mb 2);
  check "length" 1 (Mailbox.length mb)

let test_mailbox_try_get_empty () =
  let mb : int Mailbox.t = Mailbox.create () in
  check_bool "empty" true (Mailbox.try_get mb = None)

let test_mailbox_peek () =
  let mb = Mailbox.create () in
  check_bool "peek empty" true (Mailbox.peek mb = None);
  ignore (Mailbox.try_put mb 42);
  check_bool "peek" true (Mailbox.peek mb = Some 42);
  check "peek does not consume" 1 (Mailbox.length mb)

(* {1 Lock} *)

let test_lock_mutual_exclusion () =
  let e = Engine.create () in
  let l = Lock.create () in
  let in_critical = ref 0 and max_seen = ref 0 in
  for _ = 1 to 4 do
    Engine.spawn e (fun () ->
        Lock.with_lock l (fun () ->
            incr in_critical;
            max_seen := max !max_seen !in_critical;
            Engine.delay 10L;
            decr in_critical))
  done;
  Engine.run e;
  check "never two holders" 1 !max_seen;
  check "contention recorded" 3 (Lock.contended l)

let test_lock_release_not_held () =
  let l = Lock.create () in
  Alcotest.check_raises "release unheld"
    (Invalid_argument "Lock.release: not held") (fun () -> Lock.release l)

let test_lock_with_lock_exception_releases () =
  let e = Engine.create () in
  let l = Lock.create () in
  Engine.spawn e (fun () ->
      (try Lock.with_lock l (fun () -> failwith "inside") with
      | Failure _ -> ());
      Alcotest.(check bool) "released after exception" false (Lock.held l));
  Engine.run e

(* {1 Stats} *)

let test_stats_counters () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.add s "a" 4;
  Stats.incr s "b";
  check "a" 5 (Stats.get s "a");
  check "b" 1 (Stats.get s "b");
  check "absent" 0 (Stats.get s "zzz");
  Alcotest.(check (list (pair string int)))
    "sorted" [ ("a", 5); ("b", 1) ] (Stats.counters s)

let test_stats_gauges () =
  let s = Stats.create () in
  Stats.set_gauge s "g" 1.5;
  Stats.add_gauge s "g" 0.5;
  Alcotest.(check (float 1e-9)) "gauge" 2.0 (Stats.gauge s "g")

let test_stats_reset () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.reset s;
  check "reset" 0 (Stats.get s "a")

(* {1 Rng} *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    check64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_int_bounds () =
  let r = Rng.create ~seed:7L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done

let test_rng_int_bad_bound () =
  let r = Rng.create ~seed:1L in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be > 0") (fun () ->
      ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create ~seed:9L in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    if v < 0. || v >= 2.5 then Alcotest.fail "float out of bounds"
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:3L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* {1 Cycles} *)

let test_cycles_roundtrip () =
  Alcotest.(check (float 1e-6)) "sec roundtrip" 1.5
    (Cycles.to_sec (Cycles.of_sec 1.5))

let test_cycles_wire_rate () =
  (* 25 Gbps at 2.4 GHz: 0.768 cycles per byte. *)
  Alcotest.(check (float 1e-9)) "25G" 0.768 (Cycles.per_byte_at_gbps 25.

)

let suite =
  [
    ("engine: time advances with delay", `Quick, test_engine_time_advances);
    ("engine: processes interleave by time", `Quick, test_engine_interleaving);
    ("engine: same-time events are FIFO", `Quick, test_engine_fifo_same_time);
    ("engine: until horizon and resume", `Quick, test_engine_until);
    ("engine: stop ends run", `Quick, test_engine_stop);
    ("engine: at callback", `Quick, test_engine_at_callback);
    ("engine: past at runs immediately", `Quick, test_engine_past_at_runs_now);
    ("engine: process exception escapes run", `Quick,
     test_engine_exception_propagates);
    ("engine: delay outside process is no-op", `Quick,
     test_engine_delay_outside_process);
    ("engine: suspend outside process raises", `Quick,
     test_engine_suspend_outside_raises);
    ("engine: stats registry attached", `Quick, test_engine_stats);
    ("engine: clock never runs backwards", `Quick, test_engine_until_monotone);
    ("engine: huge times saturate", `Quick, test_engine_huge_times_saturate);
    QCheck_alcotest.to_alcotest ~rand:(Flake.rand ()) prop_engine_order;
    ("engine: delay round trip allocation budget", `Quick,
     test_engine_delay_allocation);
    ("engine: condition round trip allocation budget", `Quick,
     test_condition_allocation);
    ("condition: signal wakes one", `Quick, test_condition_signal_wakes_one);
    ("condition: broadcast wakes all", `Quick,
     test_condition_broadcast_wakes_all);
    ("condition: wait_any", `Quick, test_condition_wait_any);
    ("condition: signal with no waiters", `Quick,
     test_condition_signal_no_waiters);
    ("mailbox: fifo order", `Quick, test_mailbox_fifo);
    ("mailbox: get blocks until put", `Quick, test_mailbox_blocking_get);
    ("mailbox: put blocks at capacity", `Quick,
     test_mailbox_capacity_blocks_put);
    ("mailbox: try_put on full", `Quick, test_mailbox_try_put_full);
    ("mailbox: try_get on empty", `Quick, test_mailbox_try_get_empty);
    ("mailbox: peek", `Quick, test_mailbox_peek);
    ("lock: mutual exclusion", `Quick, test_lock_mutual_exclusion);
    ("lock: release unheld raises", `Quick, test_lock_release_not_held);
    ("lock: with_lock releases on exception", `Quick,
     test_lock_with_lock_exception_releases);
    ("stats: counters", `Quick, test_stats_counters);
    ("stats: gauges", `Quick, test_stats_gauges);
    ("stats: reset", `Quick, test_stats_reset);
    ("rng: deterministic stream", `Quick, test_rng_deterministic);
    ("rng: int bounds", `Quick, test_rng_int_bounds);
    ("rng: int bad bound", `Quick, test_rng_int_bad_bound);
    ("rng: float bounds", `Quick, test_rng_float_bounds);
    ("rng: shuffle is a permutation", `Quick, test_rng_shuffle_permutation);
    ("cycles: sec roundtrip", `Quick, test_cycles_roundtrip);
    ("cycles: 25G wire rate", `Quick, test_cycles_wire_rate);
  ]
