(* Per-layer metrics of one traced leg, named after the lib/ modules
   they come from.  Counts come from the runtime's Obs registry and the
   engine's stats; call counts and durations from the tracer; host costs
   of layers without a public boundary inside a run from {!Replay}.
   See README.md for which end-to-end metric each should move. *)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let rings = [ "xRX"; "xFill"; "xTX"; "xCompl"; "iSub"; "iCompl" ]

let ring_prefix r = if r = "iSub" || r = "iCompl" then "uring" else "xsk"

let api_calls = [ "sendto"; "recvfrom"; "read"; "write"; "send"; "poll" ]

(* Application payload bytes per frame, for the replays. *)
let payload_size = function
  | "echo_small" -> 64
  | "kv_open" | "kv_closed" -> 112
  | _ -> 1460

type input = {
  workload : string;
  traced : Workload.leg;  (** the traced leg: counters and spans *)
  untraced : Workload.leg;  (** the same leg untraced: host time, GC *)
}

(* Every per-layer metric, as (name, unit, value). *)
let metrics { workload; traced; untraced } =
  let h = Option.get traced.Workload.harness in
  let tr =
    match traced.Workload.tracer with
    | Some t -> t
    | None -> invalid_arg "Layers.metrics: leg was not traced"
  in
  let rt = Counters.runtime h in
  let ops = Ledger.attempted traced.Workload.ledger in
  let per_op v = ratio v ops in
  let sim_cycles = max 1 traced.Workload.sim_cycles in
  let calls = Tracer.total_calls tr in
  let c = Counters.counter h in
  let exits = Libos.Env.exits h.Apps.Harness.env in
  let libos =
    [
      ("libos.calls_per_op", "count", per_op calls);
      ("libos.errors_per_op", "count", per_op (Tracer.total_errors tr));
    ]
    @ List.concat_map
        (fun name ->
          let s = Tracer.call_stat tr name in
          let n = float_of_int (max 1 s.Tracer.calls) in
          [
            ( "libos." ^ name ^ ".sim_us",
              "us",
              float_of_int s.Tracer.sim_cycles /. n /. 2400. );
            ("libos." ^ name ^ ".host_us", "us", s.Tracer.host_s /. n *. 1e6);
          ])
        api_calls
  in
  let total, self = Tracer.op_self tr traced.Workload.ledger in
  let trace =
    [
      ("trace.op_self_share", "ratio", ratio self total);
      ( "trace.host_overhead",
        "ratio",
        (traced.Workload.timed_s /. untraced.Workload.timed_s) -. 1. );
      ("trace.spans_per_op", "count", per_op (Tracer.span_count tr));
    ]
  in
  let sgx =
    [
      ("sgx.exits_per_op", "count", per_op exits);
      ( "sgx.exit_cycle_share",
        "ratio",
        float_of_int exits
        *. Int64.to_float !Sgx.Params.enclave_exit_cycles
        /. float_of_int sim_cycles );
      ( "sgx.boundary_bytes_per_op",
        "B",
        per_op
          (Sim.Stats.get (Sim.Engine.stats h.Apps.Harness.engine)
             "sgx.boundary_bytes") );
    ]
  in
  let burst r =
    let p = ring_prefix r in
    ratio (c (p ^ "." ^ r ^ ".burst_slots")) (c (p ^ "." ^ r ^ ".bursts"))
  in
  let replay_burst =
    int_of_float
      (Float.round (max 1. (if workload = "uring_io" then burst "iSub" else burst "xRX")))
  in
  let ring_cost = Replay.rings ~burst:replay_burst in
  let ring =
    List.map (fun r -> ("rings." ^ r ^ ".slots_per_burst", "count", burst r)) rings
    @ [
        ( "rings.check_failures",
          "count",
          float_of_int (Rakis.Runtime.total_ring_check_failures rt) );
        ("rings.host_ns_per_slot", "ns", ring_cost.Replay.ns);
        ("rings.words_per_slot", "words", ring_cost.Replay.words);
      ]
  in
  let umem_cost = Replay.umem () in
  let xsk =
    [
      ("xsk.rx_per_op", "count", per_op (c "xsk.rx_packets"));
      ("xsk.tx_per_op", "count", per_op (c "xsk.tx_packets"));
      ("xsk.tx_rekicks", "count", float_of_int (c "xsk.tx_rekicks"));
      ("xsk.fill_throttled", "count", float_of_int (c "xsk.fill_throttled"));
      ("umem.rejects", "count", float_of_int (Counters.umem_rejects h));
      ("umem.force_reclaims", "count", float_of_int (c "xsk.umem.force_reclaims"));
      ("umem.host_ns_per_frame", "ns", umem_cost.Replay.ns);
    ]
  in
  let wakeups = c "mm.wakeups" and scans = c "mm.scans" in
  let mm =
    [
      ("mm.wakeups_per_op", "count", per_op wakeups);
      ("mm.scans_per_op", "count", per_op scans);
      ("mm.wakeups_per_scan", "ratio", ratio wakeups scans);
    ]
  in
  let _, slow_cycles = Counters.histogram h "health.slow_path_cycles" in
  let health =
    [
      ("health.slow_share", "ratio", ratio (c "health.slow_calls") calls);
      ( "health.breaker_opens",
        "count",
        float_of_int
          (c "health.xsk.opens" + c "health.uring.opens" + c "health.mm.opens") );
      ("health.slow_cycle_share", "ratio", ratio slow_cycles sim_cycles);
    ]
  in
  let sqes = c "uring.sqes_submitted" in
  let waits, wait_cycles = Counters.histogram h "uring.sync_wait_cycles" in
  let uring =
    [
      ("uring.sqes_per_op", "count", per_op sqes);
      ("uring.cqes_per_sqe", "ratio", ratio (c "uring.cqes_reaped") sqes);
      ("uring.sync_wait_us", "us", ratio wait_cycles waits /. 2400.);
      ("uring.retries", "count", float_of_int (c "uring.retries"));
    ]
  in
  let stacks =
    List.init (Rakis.Runtime.shard_count rt) (Rakis.Runtime.shard_stack rt)
  in
  let over f = List.fold_left (fun acc s -> acc + f s) 0 stacks in
  let payload = payload_size workload in
  let input_cost = Replay.stack_input ~payload in
  let stack =
    [
      ("stack.delivered_per_op", "count", per_op (over Netstack.Stack.rx_delivered));
      ( "stack.drops_per_kop",
        "count",
        1000. *. per_op (over Netstack.Stack.rx_dropped) );
      ( "stack.lock_contention",
        "count",
        float_of_int (over Netstack.Stack.lock_contention) );
      ("stack.input_host_ns", "ns", input_cost.Replay.ns);
      ("stack.input_words", "words", input_cost.Replay.words);
    ]
  in
  let sum_cost = Replay.checksum () and codec_cost = Replay.codec ~payload in
  let packet =
    [
      ("packet.checksum_ns_per_kb", "ns", sum_cost.Replay.ns);
      ("packet.codec_ns_per_frame", "ns", codec_cost.Replay.ns);
      ("packet.codec_words_per_frame", "words", codec_cost.Replay.words);
    ]
  in
  let st = Sim.Engine.stats h.Apps.Harness.engine in
  let hostos =
    [
      ("nic.rx_per_op", "count", per_op (Counters.engine_stat h ~prefix:"nic." ~suffix:".rx"));
      ( "nic.drops_per_op",
        "count",
        per_op (Counters.engine_stat h ~prefix:"nic." ~suffix:".drops") );
      ( "kudp.drops_per_op",
        "count",
        per_op
          (Sim.Stats.get st "udp.buffer_drops" + Sim.Stats.get st "udp.no_socket_drops")
      );
    ]
  in
  let switch = Replay.engine_switch () in
  let ops_k = float_of_int (max 1 ops) /. 1000. in
  let sim =
    [
      ( "sim.host_ns_per_sim_us",
        "ns",
        untraced.Workload.timed_s *. 1e9
        /. (float_of_int (max 1 untraced.Workload.sim_cycles) /. 2400.) );
      ("sim.host_ns_per_switch", "ns", switch.Replay.ns);
      ( "gc.minor_collections_per_kop",
        "count",
        float_of_int untraced.Workload.gc_minor /. ops_k );
      ("gc.major_collections", "count", float_of_int untraced.Workload.gc_major);
    ]
  in
  libos @ trace @ sgx @ ring @ xsk @ mm @ health @ uring @ stack @ packet
  @ hostos @ sim
