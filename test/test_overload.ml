(* Overload-control unit and property tests (DESIGN.md §15).

   The controller is pure given a clock, so the unit tests drive a
   manual clock through each mechanism — token bucket, hysteretic
   watermarks, the CoDel control law, earliest-deadline-first shedding
   and the control-class exemption — at exact boundaries.  The QCheck
   property then runs whole chaos soaks (flash crowd × rolling faults ×
   malice soup) at random coordinates and checks the books: every
   offered datagram terminates as completed, shed, or an accounted
   drop, and control traffic is never shed. *)

module O = Rakis.Overload
module C = Tm.Campaign

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* A controller on a hand-cranked clock, with small tunables so the
   tests exercise exact boundaries. *)
let make ?(target = 100L) ?(interval = 1_000L) ?(high = 8) ?(low = 2)
    ?(rate = 10) ?(burst = 4) () =
  let clock = ref 0L in
  let t =
    O.create ~name:"test" ~target ~interval ~high_watermark:high
      ~low_watermark:low ~rate ~burst
      ~clock:(fun () -> !clock)
      ()
  in
  (t, clock)

(* {1 Token bucket} *)

let test_token_bucket () =
  let t, clock = make () in
  (* No pressure: data flows freely, no tokens spent. *)
  for _ = 1 to 20 do
    check_bool "free under no pressure" true (O.admit t O.Data)
  done;
  check "nothing shed yet" 0 (O.data_shed t);
  (* Saturate: the bucket gates data at [burst] then [rate]/[interval]. *)
  O.note_depth t 8;
  check_bool "saturated at high watermark" true (O.saturated t);
  for i = 1 to 4 do
    check_bool (Printf.sprintf "burst admit %d" i) true (O.admit t O.Data)
  done;
  check_bool "bucket empty" false (O.admit t O.Data);
  check "one shed" 1 (O.data_shed t);
  (* rate=10 per interval=1000: 100 cycles buys exactly one token. *)
  clock := Int64.add !clock 100L;
  check_bool "one refilled token" true (O.admit t O.Data);
  check_bool "and only one" false (O.admit t O.Data);
  (* A long quiet period caps the bucket at [burst], not unbounded. *)
  clock := Int64.add !clock 1_000_000L;
  let admitted = ref 0 in
  for _ = 1 to 20 do
    if O.admit t O.Data then incr admitted
  done;
  check "refill capped at burst" 4 !admitted

(* {1 Hysteretic watermarks, multiple depth sources} *)

let test_hysteresis () =
  let t, _clock = make () in
  O.note_depth t 7;
  check_bool "below high watermark" false (O.saturated t);
  O.note_depth t 8;
  check_bool "at high watermark" true (O.saturated t);
  (* Between the watermarks: the mark must hold (no flapping). *)
  O.note_depth t 5;
  check_bool "holds between watermarks" true (O.saturated t);
  O.note_depth t 2;
  check_bool "clears at low watermark" false (O.saturated t);
  O.note_depth t 5;
  check_bool "re-raising needs high watermark" false (O.saturated t)

let test_multi_source_max () =
  let t, _clock = make () in
  (* Source 1 (an XSK rx backlog) floods while source 0 (the socket
     queue) stays shallow: the shard is saturated on the max. *)
  O.note_depth ~src:1 t 9;
  check_bool "one flooded source saturates" true (O.saturated t);
  O.note_depth ~src:0 t 0;
  check_bool "a shallow sibling cannot clear it" true (O.saturated t);
  O.note_depth ~src:1 t 1;
  check_bool "clears once every source drains" false (O.saturated t)

(* {1 CoDel control law} *)

let test_codel () =
  let t, clock = make () in
  (* Above target, but not yet for a full interval: no shedding. *)
  O.observe_sojourn t 500L;
  check_bool "first above-target sojourn" false (O.shedding t);
  clock := 999L;
  O.observe_sojourn t 500L;
  check_bool "interval not yet elapsed" false (O.shedding t);
  clock := 1_000L;
  O.observe_sojourn t 500L;
  check_bool "above target for a full interval" true (O.shedding t);
  (* One good sojourn ends the episode. *)
  O.observe_sojourn t 50L;
  check_bool "one below-target sojourn clears" false (O.shedding t);
  (* And the next episode needs a fresh full interval. *)
  clock := 1_500L;
  O.observe_sojourn t 500L;
  check_bool "fresh episode restarts the clock" false (O.shedding t)

(* {1 Earliest-deadline-first} *)

let test_edf_slack () =
  let t, clock = make () in
  (* Enter the shedding state with a standing sojourn of 400 cycles. *)
  O.observe_sojourn t 400L;
  clock := 1_000L;
  O.observe_sojourn t 400L;
  check_bool "shedding" true (O.shedding t);
  (* Slack below the standing sojourn: doomed, shed before any token
     is spent. *)
  check_bool "doomed request shed" false (O.admit ~slack:399L t O.Data);
  check "counted as deadline shed" 1 (O.deadline_shed t);
  (* Slack at/above the sojourn competes normally (tokens permitting). *)
  check_bool "viable request admitted" true (O.admit ~slack:400L t O.Data);
  check "no further deadline sheds" 1 (O.deadline_shed t)

(* {1 Control traffic is never shed} *)

let test_control_never_shed () =
  let t, _clock = make () in
  O.note_depth t 100;
  (* Drain the bucket far past empty: 100% of data is being shed... *)
  for _ = 1 to 100 do
    ignore (O.admit t O.Data)
  done;
  check_bool "data is being shed" true (O.data_shed t > 0);
  (* ...and every control admission — the Half_open breaker probe the
     runtime classifies as [Control] — still passes. *)
  for _ = 1 to 100 do
    check_bool "control admitted" true (O.admit t O.Control)
  done;
  check "control admissions counted" 100 (O.control_admitted t);
  check "control sheds impossible" 0 (O.control_shed t)

(* {1 One loss owner}

   An rx-gate shed lands in two counters at once: the controller's
   [shed.data] and the stack's [drop.overload-shed].  Read straight from
   the Obs registry, those two and the runtime's drop total must show
   every rx-gate shed added to [accounted_losses] exactly once, and each
   workload's reported residue must be the harness owner's residue. *)

let sum_suffix rt suffix =
  List.fold_left
    (fun acc (name, v) ->
      if String.ends_with ~suffix name then acc + v else acc)
    0
    (Obs.Metrics.counters (Obs.metrics (Rakis.Runtime.obs rt)))

let overload_harness () =
  match
    Apps.Harness.make Libos.Env.Rakis_sgx
      ~rakis_config:
        {
          Rakis.Config.default with
          num_queues = 2;
          num_xsks = 4;
          overload = true;
        }
      ~nic_queues:4 ()
  with
  | Ok h -> h
  | Error e -> Alcotest.fail e

let runtime (h : Apps.Harness.t) =
  match Libos.Env.runtime h.env with
  | Some rt -> rt
  | None -> Alcotest.fail "no RAKIS runtime"

let test_losses_counted_once () =
  let h = overload_harness () in
  let config =
    {
      Apps.Loadgen.default with
      connections = 640;
      ops = 3000;
      timeout = 12_000_000L;
    }
  in
  let s = Apps.Loadgen.run ~config h ~server_threads:4 in
  let rt = runtime h in
  let rx_gate = sum_suffix rt ".drop.overload-shed" in
  let shed_data = sum_suffix rt ".shed.data" in
  check_bool "rx-gate sheds occurred" true (rx_gate > 0);
  check_bool "every rx-gate shed is a controller shed" true
    (rx_gate <= shed_data);
  check "rx-gate sheds counted once"
    (Rakis.Runtime.total_accounted_drops rt - rx_gate + shed_data)
    (Rakis.Runtime.totals rt).accounted_losses;
  let missing =
    s.Apps.Loadgen.lost - s.Apps.Loadgen.late - s.Apps.Loadgen.rdp_gave_up
  in
  check "loadgen residue is the owner's"
    (Apps.Harness.unaccounted h ~missing)
    s.Apps.Loadgen.unaccounted;
  check "no silent loss" 0 s.Apps.Loadgen.unaccounted;
  let h = overload_harness () in
  let r = Apps.Udp_echo.run ~flows:64 h ~datagrams:4000 ~payload_size:512 in
  check "udp_echo accounted is the owner's" (Apps.Harness.accounted h)
    r.Apps.Udp_echo.accounted;
  check "udp_echo residue is the owner's"
    (Apps.Harness.unaccounted h
       ~missing:
         (r.Apps.Udp_echo.datagrams - r.Apps.Udp_echo.echoed
        - r.Apps.Udp_echo.rdp_gave_up))
    r.Apps.Udp_echo.unaccounted;
  let o = C.soak { C.default_soak with sk_steps = 800; sk_seed = 7L } in
  check "soak residue is the owner's"
    (max 0 (o.C.sk_lost - o.C.sk_late - o.C.sk_accounted))
    o.C.sk_unaccounted

(* {1 The end-of-run rollup}

   [Runtime.totals] against the Obs registry on a 2-queue machine with
   zero-copy and overload control on: a flash crowd sheds on every
   shard's controller, a SEND_ZC stream lends frames on a uring, and a
   malice mix makes both shards refuse descriptors and indices and the
   urings refuse CQEs.  Every total with a registry counter must equal
   that counter summed over every instance, so a rollup that skipped a
   shard, a thread or a controller comes up short. *)

let test_totals_agree_with_registry () =
  let h =
    match
      Apps.Harness.make Libos.Env.Rakis_sgx
        ~rakis_config:
          {
            Rakis.Config.default with
            num_queues = 2;
            num_xsks = 2;
            zerocopy = true;
            overload = true;
          }
        ~nic_queues:4 ()
    with
    | Ok h -> h
    | Error e -> Alcotest.fail e
  in
  let rt = runtime h in
  let m = Hostos.Malice.create ~seed:5L () in
  List.iter
    (fun a -> Hostos.Malice.arm m ~probability:0.002 a)
    Hostos.Malice.[ Bad_umem_offset; Prod_overshoot; Cqe_bogus_res ];
  Hostos.Kernel.set_malice h.kernel (Some m);
  ignore
    (Apps.Loadgen.run
       ~config:
         {
           Apps.Loadgen.default with
           connections = 640;
           ops = 2000;
           timeout = 12_000_000L;
         }
       h ~server_threads:4);
  ignore (Apps.Iperf_tcp.run h ~bytes:(256 * 1024));
  (* A fresh thread (its own uring FM) writing a file under CQE forgery. *)
  Hostos.Malice.arm m ~probability:0.2 Hostos.Malice.Cqe_bogus_res;
  (Apps.Harness.api h).Libos.Api.spawn ~name:"writer" (fun api ->
      (match api.Libos.Api.openf ~create:true ~trunc:true "/tmp/totals" with
      | Ok fd ->
          let block = Bytes.make 512 'w' in
          for _ = 1 to 64 do
            ignore (api.Libos.Api.write fd block 0 512)
          done
      | Error _ -> ());
      Apps.Harness.stop h);
  Apps.Harness.run h ~until:(Sim.Cycles.of_sec 60.);
  let counters = Obs.Metrics.counters (Obs.metrics (Rakis.Runtime.obs rt)) in
  let sum keep =
    List.fold_left (fun acc (n, v) -> if keep n then acc + v else acc) 0 counters
  in
  let has prefix suffix n =
    String.starts_with ~prefix n && String.ends_with ~suffix n
  in
  (* Every instance the rollup must visit contributes: both shards, the
     oldest thread (uring0, the SEND_ZC sender) and the newest (uring4,
     the writer), and all three controllers. *)
  List.iter
    (fun (who, keep) -> check_bool (who ^ " contributes") true (sum keep > 0))
    [
      ("shard 0", has "xsk.0." ".umem.rejects");
      ("shard 1", has "xsk.1." ".umem.rejects");
      ("the oldest thread", has "uring0." ".zc_sends");
      ("the newest thread", has "uring4." ".cqe_rejects");
      ("shard 0's controller", has "overload.0." ".admitted.data");
      ("shard 1's controller", has "overload.1." ".admitted.data");
      ("the uring controller", has "overload.uring." ".admitted.data");
    ];
  let t = Rakis.Runtime.totals rt in
  List.iter
    (fun (what, registry, total) -> check what registry total)
    [
      ("ring-check failures", sum (has "" ".failures"), t.ring_check_failures);
      ("UMem rejects", sum (has "" ".umem.rejects"), t.umem_rejects);
      ("CQE rejects", sum (has "uring" ".cqe_rejects"), t.cqe_rejects);
      ("zc sends", sum (has "uring" ".zc_sends"), t.zc_sends);
      ("zc fallbacks", sum (has "uring" ".zc_fallbacks"), t.zc_fallbacks);
      ("zc notifs", sum (has "uring" ".zc_notifs"), t.zc_notifs);
      ( "zc notif rejects",
        sum (has "uring" ".zc_notif_early") + sum (has "uring" ".zc_notif_stray"),
        t.zc_notif_rejects );
      ("overload sheds", sum (has "overload." ".shed.data"), t.overload_shed);
      ( "overload admissions",
        sum (has "overload." ".admitted.data")
        + sum (has "overload." ".admitted.control"),
        t.overload_admitted );
      ("fill throttles", sum (has "xsk" ".fill_throttled"), t.fill_throttles);
      ("breaker opens", sum (has "health." ".opens"), t.breaker_opens);
      ("breaker failovers", sum (has "health." ".failovers"), t.breaker_failovers);
      ("breaker closes", sum (has "health." ".closes"), t.breaker_closes);
    ]

(* {1 Accounting identity under random chaos (QCheck)}

   The soak composes a flash crowd, a rolling shard-pinned fault plan
   and a seeded malice soup — and must keep the books balanced at any
   coordinate: offered = completed + shed + accounted drops (no silent
   loss), with zero control-class sheds.  Small step counts keep each
   case under a second; the full-scale gate runs in [tm_verify --soak]. *)

let soak_accounting =
  QCheck.Test.make ~count:6 ~name:"soak accounting: no silent loss, no control shed"
    QCheck.(
      triple (int_range 800 2500) (int_range 1 2) (int_range 0 10_000))
    (fun (steps, queues, seed) ->
      let o =
        C.soak
          {
            C.default_soak with
            sk_steps = steps;
            sk_queues = queues;
            sk_seed = Int64.of_int seed;
          }
      in
      (not o.C.sk_stalled)
      && o.C.sk_unaccounted = 0
      && o.C.sk_totals.control_shed = 0)

let suite =
  [
    Alcotest.test_case "overload: token bucket under pressure" `Quick
      test_token_bucket;
    Alcotest.test_case "overload: hysteretic watermarks" `Quick test_hysteresis;
    Alcotest.test_case "overload: multi-source depth max" `Quick
      test_multi_source_max;
    Alcotest.test_case "overload: CoDel control law" `Quick test_codel;
    Alcotest.test_case "overload: earliest-deadline-first shedding" `Quick
      test_edf_slack;
    Alcotest.test_case "overload: control class never shed" `Quick
      test_control_never_shed;
    Alcotest.test_case "overload: each loss counted once, one residue" `Quick
      test_losses_counted_once;
    QCheck_alcotest.to_alcotest ~long:false soak_accounting;
    Alcotest.test_case "totals: the rollup agrees with the registry" `Quick
      test_totals_agree_with_registry;
  ]
