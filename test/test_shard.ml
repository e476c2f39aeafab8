(* Tests for the sharded multi-queue datapath (DESIGN.md §10): RSS
   steering properties (QCheck), multi-shard traffic spread with
   per-shard exit accounting, fault and Malice containment to the
   targeted shard, per-shard Obs metric naming, and the campaign's
   shard-aware repro tokens. *)

module F = Hostos.Faults
module H = Rakis.Health

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* {1 RSS steering properties} *)

(* (src_ip, dst_ip), ((src_port, dst_port), queues) *)
let flow_gen =
  QCheck.Gen.(
    pair
      (pair (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF))
      (pair (pair (int_bound 65535) (int_bound 65535)) (int_range 1 16)))

let qcheck_rss_bounded =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make ~name:"rss: queue is in [0, queues)" ~count:1000
       (QCheck.make flow_gen)
       (fun ((src_ip, dst_ip), ((src_port, dst_port), queues)) ->
         let q =
           Packet.Rss.queue ~queues ~src_ip ~dst_ip ~src_port ~dst_port
         in
         0 <= q && q < queues))

let qcheck_rss_symmetric =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make
       ~name:"rss: both directions of a flow share a queue" ~count:1000
       (QCheck.make flow_gen)
       (fun ((src_ip, dst_ip), ((src_port, dst_port), queues)) ->
         Packet.Rss.queue ~queues ~src_ip ~dst_ip ~src_port ~dst_port
         = Packet.Rss.queue ~queues ~src_ip:dst_ip ~dst_ip:src_ip
             ~src_port:dst_port ~dst_port:src_port))

(* No per-boot seeding and no hidden state: re-evaluating a flow's
   queue — including interleaved with other flows' hashes — always
   lands on the same queue, so a flow can never migrate mid-run. *)
let qcheck_rss_no_migration =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make ~name:"rss: deterministic, flows never migrate"
       ~count:1000 (QCheck.make flow_gen)
       (fun ((src_ip, dst_ip), ((src_port, dst_port), queues)) ->
         let q1 =
           Packet.Rss.queue ~queues ~src_ip ~dst_ip ~src_port ~dst_port
         in
         (* Interleave a different flow's hash: must not perturb. *)
         ignore
           (Packet.Rss.hash ~src_ip:dst_ip ~dst_ip:src_ip
              ~src_port:(src_port lxor 1) ~dst_port);
         let q2 =
           Packet.Rss.queue ~queues ~src_ip ~dst_ip ~src_port ~dst_port
         in
         q1 = q2
         && q1
            = Packet.Rss.hash ~src_ip ~dst_ip ~src_port ~dst_port mod queues))

(* {1 Harness helpers} *)

let boot_sharded ~queues () =
  match
    Apps.Harness.make Libos.Env.Rakis_sgx
      ~rakis_config:{ Rakis.Config.default with num_queues = queues }
      ~nic_queues:4 ()
  with
  | Ok h -> h
  | Error e -> Alcotest.failf "harness boot: %s" e

let runtime h = Option.get (Libos.Env.runtime h.Apps.Harness.env)

(* The UDP workloads make no syscall RAKIS leaves unaccelerated, so
   besides the verdict they take no host-call exit at all. *)
let assert_fast_path h =
  (match Apps.Harness.fast_path_verdict h with
  | Apps.Harness.Held -> ()
  | v -> Alcotest.failf "fast path: %a" Apps.Harness.pp_fast_path v);
  check "unaccelerated-syscall exits" 0
    (Rakis.Runtime.totals (runtime h)).host_call_exits

let install_faults h plan =
  let rt = runtime h in
  let f = Hostos.Faults.create ~obs:(Rakis.Runtime.obs rt) ~seed:11L () in
  F.install_plan f plan;
  Hostos.Kernel.set_faults h.Apps.Harness.kernel (Some f);
  Rakis.Runtime.start_watchdog rt;
  f

(* {1 Multi-shard traffic} *)

(* Eight RSS-spread flows over four shards: every shard must carry
   traffic, deliver everything it was offered, and the per-shard
   counters must add up to the aggregate — the accounting the apps'
   silently-idle-shard check is built on. *)
let test_multi_shard_traffic_spread () =
  let h = boot_sharded ~queues:4 () in
  let r = Apps.Udp_echo.run ~flows:8 h ~datagrams:800 ~payload_size:256 in
  check "all datagrams echoed" 800 r.Apps.Udp_echo.echoed;
  let report =
    match r.Apps.Udp_echo.shards with
    | Some s -> s
    | None -> Alcotest.fail "no shard report on a RAKIS env"
  in
  check "one stat per shard" 4 (List.length report.Apps.Shards.stats);
  List.iter
    (fun s ->
      check_bool
        (Printf.sprintf "shard %d carried traffic" s.Apps.Shards.shard)
        true
        (s.Apps.Shards.rx_delivered > 0);
      check
        (Printf.sprintf "shard %d delivered all it was offered"
           s.Apps.Shards.shard)
        s.Apps.Shards.offered s.Apps.Shards.rx_delivered)
    report.Apps.Shards.stats;
  check "per-shard rx sums to the echo count" 800
    (Apps.Shards.total_rx report);
  Alcotest.(check (list int)) "no silently idle shard" []
    (Apps.Shards.silently_idle report);
  let rt = runtime h in
  let sum = ref 0 in
  for k = 0 to Rakis.Runtime.shard_count rt - 1 do
    sum := !sum + Rakis.Runtime.shard_rx_delivered rt k
  done;
  check "runtime per-shard counters agree with the report" 800 !sum;
  check_bool "invariants hold" true (Rakis.Runtime.invariant_holds rt);
  assert_fast_path h

(* Per-shard Obs naming: sharded boots register <name>.<k> counters so
   dashboards can tell the shards apart, while the Runtime accessors
   still give the aggregate view. *)
let test_per_shard_metric_naming () =
  let h = boot_sharded ~queues:2 () in
  ignore (Apps.Udp_echo.run ~flows:4 h ~datagrams:200 ~payload_size:256);
  let rt = runtime h in
  let obs = Rakis.Runtime.obs rt in
  let v name = Obs.Metrics.value (Obs.counter obs name) in
  check_bool "stack.0 delivered" true (v "stack.0.rx_delivered" > 0);
  check_bool "stack.1 delivered" true (v "stack.1.rx_delivered" > 0);
  check "per-shard stack counters roll up to the aggregate" 200
    (v "stack.0.rx_delivered" + v "stack.1.rx_delivered");
  check_bool "shard-0 xsk counters present" true (v "xsk.0.0.rx_packets" > 0);
  check_bool "shard-1 xsk counters present" true (v "xsk.1.0.rx_packets" > 0);
  check_bool "per-shard monitor counters present" true
    (v "mm.0.wakeups" > 0 && v "mm.1.wakeups" > 0)

(* {1 Containment} *)

(* The tentpole availability claim: a persistent fault pinned to shard
   1 costs latency, never datagrams, and leaves every other shard's
   breaker untouched — the blast radius is one shard. *)
let test_persistent_fault_contained_zero_loss () =
  let h = boot_sharded ~queues:2 () in
  let f =
    install_faults h
      [ { F.fault = F.Drop_wakeup; when_ = F.Persistent; shard = Some 1 } ]
  in
  let r = Apps.Udp_echo.run ~flows:4 h ~datagrams:400 ~payload_size:256 in
  check "zero loss under a dead shard" 400 r.Apps.Udp_echo.echoed;
  check_bool "fault fired" true (F.injected_of f F.Drop_wakeup > 0);
  let rt = runtime h in
  let b1 = Rakis.Runtime.shard_breaker rt 1 in
  check_bool "shard 1 breaker opened" true (H.opens b1 >= 1);
  check_bool "shard 1 traffic rode the slow path" true (H.failovers b1 > 0);
  let b0 = Rakis.Runtime.shard_breaker rt 0 in
  check "shard 0 breaker never opened" 0 (H.opens b0);
  check "shard 0 saw no failovers" 0 (H.failovers b0);
  check_bool "shard 0 stayed closed" true (H.state b0 = H.Closed);
  check_bool "invariants hold" true (Rakis.Runtime.invariant_holds rt)

(* Malice containment: an index attack armed against shard 1 only is
   detected by shard 1's FMs and provably cannot touch shard 0 — the
   shard-0 flow loses nothing, and shard 0's rings record zero
   certification failures. *)
let test_malice_contained_to_target_shard () =
  let h = boot_sharded ~queues:2 () in
  let m = Hostos.Malice.create ~seed:99L () in
  Hostos.Malice.arm m ~probability:0.3 ~shard:1 Hostos.Malice.Prod_overshoot;
  Hostos.Kernel.set_malice h.Apps.Harness.kernel (Some m);
  (* One flow per shard, source ports picked against the NIC's RSS. *)
  let port_for ~shard =
    let src_ip =
      Packet.Addr.Ip.to_int (Hostos.Kernel.client_ip h.Apps.Harness.kernel)
    in
    let dst_ip = Packet.Addr.Ip.to_int Rakis.Config.default.Rakis.Config.ip in
    let rec find p =
      if
        Packet.Rss.queue ~queues:4 ~src_ip ~dst_ip ~src_port:p ~dst_port:5201
        mod 2
        = shard
      then p
      else find (p + 1)
    in
    find 43000
  in
  let p0 = port_for ~shard:0 and p1 = port_for ~shard:1 in
  let api = Apps.Harness.api h in
  let received = Hashtbl.create 4 in
  Sim.Engine.spawn h.Apps.Harness.engine ~name:"server" (fun () ->
      let fd = api.Libos.Api.udp_socket () in
      (match api.Libos.Api.bind fd (Rakis.Config.default.Rakis.Config.ip, 5201) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "bind: %a" Abi.Errno.pp e);
      let rec loop () =
        match api.Libos.Api.recvfrom fd 2048 with
        | Ok (_, (_, src_port)) ->
            Hashtbl.replace received src_port
              (1 + Option.value ~default:0 (Hashtbl.find_opt received src_port));
            loop ()
        | Error _ -> ()
      in
      loop ());
  let packets = 200 in
  let live = ref 2 in
  List.iter
    (fun p ->
      Sim.Engine.spawn h.Apps.Harness.engine
        ~name:(Printf.sprintf "client%d" p)
        (fun () ->
          Sim.Engine.delay (Sim.Cycles.of_us 50.);
          let fd = (h.Apps.Harness.peer).Libos.Api.udp_socket () in
          (match
             (h.Apps.Harness.peer).Libos.Api.bind fd
               (Hostos.Kernel.client_ip h.Apps.Harness.kernel, p)
           with
          | Ok () -> ()
          | Error e -> Alcotest.failf "client bind: %a" Abi.Errno.pp e);
          for _ = 1 to packets do
            ignore
              ((h.Apps.Harness.peer).Libos.Api.sendto fd (Bytes.make 256 'a')
                 (Rakis.Config.default.Rakis.Config.ip, 5201));
            Sim.Engine.delay (Sim.Cycles.of_us 2.)
          done;
          decr live;
          if !live = 0 then
            Sim.Engine.spawn h.Apps.Harness.engine ~name:"drain" (fun () ->
                Sim.Engine.delay (Sim.Cycles.of_ms 2.);
                Apps.Harness.stop h)))
    [ p0; p1 ];
  Apps.Harness.run h ~until:(Sim.Cycles.of_sec 5.);
  check_bool "attack fired" true (Hostos.Malice.fired m > 0);
  let got p = Option.value ~default:0 (Hashtbl.find_opt received p) in
  check "shard-0 flow lost nothing" packets (got p0);
  check_bool "shard-1 flow was attacked" true (got p1 <= packets);
  let rt = runtime h in
  let ring_failures k =
    Array.fold_left
      (fun acc fm -> acc + Rakis.Xsk_fm.ring_check_failures fm)
      0
      (Rakis.Runtime.shard_fms rt k)
  in
  check_bool "shard 1 rejected hostile indices" true (ring_failures 1 > 0);
  check "shard 0 saw zero hostile indices" 0 (ring_failures 0);
  check_bool "invariants hold" true (Rakis.Runtime.invariant_holds rt)

(* {1 Campaign: shard-aware runs and repro tokens} *)

let test_campaign_shard_containment () =
  let o =
    Tm.Campaign.run
      {
        Tm.Campaign.default with
        seed = 91L;
        queues = 2;
        faults =
          [ { F.fault = F.Drop_wakeup; when_ = F.Persistent; shard = Some 1 } ];
      }
  in
  check_bool "no violations" false (Tm.Campaign.failed o);
  check "queues recorded" 2 o.Tm.Campaign.params.queues;
  check "one opens entry per shard" 2
    (List.length o.Tm.Campaign.totals.shard_opens);
  check "untargeted shard never opened" 0
    (List.nth o.Tm.Campaign.totals.shard_opens 0)

let test_campaign_repro_roundtrip_with_queues () =
  let p =
    {
      Tm.Campaign.default with
      seed = 33L;
      budget = 48;
      queues = 2;
      schedule =
        [ Tm.Campaign.At { step = 10; attack = Hostos.Malice.Prod_overshoot } ];
    }
  in
  let o = Tm.Campaign.run p in
  let token = Tm.Campaign.repro (Tm.Campaign.Run p) in
  Alcotest.(check string)
    "token" "xsk:seed=33:budget=48:sched=10=prod-overshoot:q=2" token;
  match Tm.Campaign.parse_repro token with
  | Ok (Tm.Campaign.Run p') ->
      check_bool "parses back" true (p' = p);
      let o' = Tm.Campaign.run p' in
      check "replay ok count" o.Tm.Campaign.ok o'.Tm.Campaign.ok;
      check "replay refused count" o.Tm.Campaign.refused o'.Tm.Campaign.refused;
      check "replay lost count" o.Tm.Campaign.lost o'.Tm.Campaign.lost
  | Ok (Tm.Campaign.Soak _) -> Alcotest.fail "parsed as a soak token"
  | Error e -> Alcotest.failf "parse_repro: %s" e

(* Keys at their default stay out of the token: a single-queue run
   carries no [q] key. *)
let test_default_keys_omitted () =
  Alcotest.(check string)
    "single-queue token" "xsk:seed=33:budget=48"
    (Tm.Campaign.repro
       (Tm.Campaign.Run { Tm.Campaign.default with seed = 33L; budget = 48 }))

(* {1 Every XSK owns a NIC queue} *)

(* Small UMems and rings keep a boot cheap enough to sample many shapes. *)
let shape_config ~queues ~xsks =
  {
    Rakis.Config.default with
    num_queues = queues;
    num_xsks = xsks;
    ring_size = 32;
    umem_size = 64 * 2048;
  }

(* (num_queues, num_xsks), nic_queues *)
let shape_gen =
  QCheck.Gen.(pair (pair (int_range 1 4) (int_range 1 4)) (int_range 1 8))

(* Every shape either gets the named boot error (more shards than NIC
   queues), or boots with every XSK of every shard attached to at least
   one NIC queue, and each such queue belonging to that shard
   ([q mod num_queues = k]).  An XSK without a queue never sees its TX
   complete, and its breaker then opens the shard onto the exit-based
   slow path.  Each shape that boots then serves a short honest loadgen
   (200 ops over 8 connections, 2 server threads): every op completes,
   none is lost silently, and the run holds the fast-path verdict. *)
let qcheck_every_xsk_owns_a_queue =
  let shape_ops = 200 in
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make ~name:"shape: every XSK owns a queue of its shard"
       ~count:60
       (QCheck.make
          ~print:(fun ((q, x), n) ->
            Printf.sprintf "num_queues=%d num_xsks=%d nic_queues=%d" q x n)
          shape_gen)
       (fun ((queues, xsks), nic_queues) ->
         match
           Apps.Harness.make Libos.Env.Rakis_sgx
             ~rakis_config:(shape_config ~queues ~xsks) ~nic_queues ()
         with
         | Error e ->
             queues > nic_queues
             && e
                = Printf.sprintf
                    "rakis config: num_queues (%d) exceeds NIC queues (%d)"
                    queues nic_queues
         | Ok h ->
             let rt = runtime h in
             queues <= nic_queues
             && List.for_all
                  (fun k ->
                    let xsks = Rakis.Runtime.shard_xsks rt k in
                    Array.length xsks > 0
                    && Array.for_all
                         (fun xsk ->
                           let qs = Hostos.Xdp.queues xsk in
                           qs <> []
                           && List.for_all (fun q -> q mod queues = k) qs)
                         xsks)
                  (List.init queues Fun.id)
             &&
             let s =
               Apps.Loadgen.run h ~server_threads:2
                 ~config:
                   { Apps.Loadgen.default with ops = shape_ops; connections = 8 }
             in
             let verdict = Apps.Harness.fast_path_verdict h in
             (s.Apps.Loadgen.completed = shape_ops
             && s.Apps.Loadgen.unaccounted = 0
             && verdict = Apps.Harness.Held)
             || QCheck.Test.fail_reportf
                  "completed %d/%d, %d lost silently, fast path %a"
                  s.Apps.Loadgen.completed shape_ops s.Apps.Loadgen.unaccounted
                  Apps.Harness.pp_fast_path verdict))

(* {1 One FIFO across shard sockets} *)

(* A datagram that reached shard 1 before another reached shard 0 is the
   one [recvfrom] returns first: the reader serves the oldest head, not
   shard 0 first. *)
let test_recvfrom_oldest_head_first () =
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine ~nic_queues:2 () in
  let rt =
    match
      Rakis.Runtime.boot kernel ~sgx:true
        ~config:(shape_config ~queues:2 ~xsks:1) ()
    with
    | Ok rt -> rt
    | Error e -> Alcotest.failf "boot: %s" e
  in
  let sock = Rakis.Runtime.udp_socket rt in
  (match Rakis.Runtime.udp_bind rt sock 7000 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bind: %a" Abi.Errno.pp e);
  let config = Rakis.Runtime.config rt in
  let frame payload =
    Packet.Frame.build_udp
      {
        Packet.Frame.src_mac = Packet.Addr.Mac.of_repr "02:00:00:00:00:09";
        dst_mac = config.Rakis.Config.mac;
        src_ip = Packet.Addr.Ip.of_repr "10.0.0.9";
        dst_ip = config.Rakis.Config.ip;
        src_port = 4000;
        dst_port = 7000;
      }
      (Bytes.of_string payload)
  in
  let advance_to c =
    Sim.Engine.at engine c ignore;
    Sim.Engine.run ~until:c engine
  in
  advance_to 1_000L;
  Netstack.Stack.input (Rakis.Runtime.shard_stack rt 1) (frame "older");
  advance_to 2_000L;
  Netstack.Stack.input (Rakis.Runtime.shard_stack rt 0) (frame "newer");
  let recv () =
    match Rakis.Runtime.udp_recvfrom rt sock ~max:64 with
    | Ok (payload, _) -> Bytes.to_string payload
    | Error e -> Alcotest.failf "recvfrom: %a" Abi.Errno.pp e
  in
  Alcotest.(check string) "shard 1's older datagram first" "older" (recv ());
  Alcotest.(check string) "then shard 0's" "newer" (recv ())

(* {1 Multi-queue RAKIS on the fast path} *)

let loadgen_run ~queues =
  let h =
    match
      Apps.Harness.make Libos.Env.Rakis_sgx
        ~rakis_config:
          { Rakis.Config.default with num_queues = queues; num_xsks = 4 }
        ~nic_queues:4 ()
    with
    | Ok h -> h
    | Error e -> Alcotest.failf "harness boot: %s" e
  in
  let s =
    Apps.Loadgen.run
      ~config:{ Apps.Loadgen.default with Apps.Loadgen.ops = 3000 }
      h ~server_threads:4
  in
  (h, s)

(* The shape of [bench kv] and [loadgen --queues 2]: two shards of two
   XSKs each on four NIC queues, four server threads.  It must run
   entirely on the XSK fast path, like the single queue: no silent
   loss, no enclave exit beyond the boot floor (the same 12 as one
   queue), no slow-path call, no breaker open, no ring-check failure. *)
let test_two_queues_stay_on_fast_path () =
  let h, s = loadgen_run ~queues:2 in
  check "every op completed" 3000 s.Apps.Loadgen.completed;
  check "no silent loss" 0 s.Apps.Loadgen.unaccounted;
  assert_fast_path h;
  let h1, _ = loadgen_run ~queues:1 in
  check "exits equal the single-queue boot floor"
    (Libos.Env.exits h1.Apps.Harness.env)
    (Libos.Env.exits h.Apps.Harness.env)

(* The UDP workloads hold the fast path on one queue and on four: the
   enclave exits stop at the boot floor, whatever the queue count. *)
let test_udp_workloads_stay_on_fast_path () =
  List.iter
    (fun queues ->
      let h = boot_sharded ~queues () in
      let r = Apps.Udp_echo.run ~flows:8 h ~datagrams:400 ~payload_size:256 in
      check (Printf.sprintf "udp_echo at %d queues: all echoed" queues) 400
        r.Apps.Udp_echo.echoed;
      assert_fast_path h;
      let h = boot_sharded ~queues () in
      ignore (Apps.Iperf.run ~streams:8 h ~packet_size:1460 ~packets:2000);
      assert_fast_path h)
    [ 1; 4 ]

let suite =
  [
    qcheck_rss_bounded;
    qcheck_rss_symmetric;
    qcheck_rss_no_migration;
    Alcotest.test_case "e2e: 8 flows spread over 4 shards, all delivered"
      `Quick test_multi_shard_traffic_spread;
    Alcotest.test_case "obs: per-shard metric naming with aggregate rollup"
      `Quick test_per_shard_metric_naming;
    Alcotest.test_case "e2e: persistent fault on shard 1 contained, zero loss"
      `Quick test_persistent_fault_contained_zero_loss;
    Alcotest.test_case "e2e: malice on shard 1 cannot touch shard 0" `Quick
      test_malice_contained_to_target_shard;
    Alcotest.test_case "campaign: shard-targeted fault opens only its breaker"
      `Quick test_campaign_shard_containment;
    Alcotest.test_case "campaign: multi-queue repro token round-trips" `Quick
      test_campaign_repro_roundtrip_with_queues;
    Alcotest.test_case "campaign: default keys stay out of tokens" `Quick
      test_default_keys_omitted;
    qcheck_every_xsk_owns_a_queue;
    Alcotest.test_case "recvfrom: oldest head first across shard sockets"
      `Quick test_recvfrom_oldest_head_first;
    Alcotest.test_case "e2e: 2-queue loadgen stays on the fast path" `Quick
      test_two_queues_stay_on_fast_path;
    Alcotest.test_case "e2e: udp_echo and iperf stay on the fast path, 1 and 4 queues"
      `Quick test_udp_workloads_stay_on_fast_path;
  ]
