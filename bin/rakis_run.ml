(* rakis_run: run any of the paper's workloads under any of the five
   test environments.

     dune exec bin/rakis_run.exe -- iperf --env rakis-sgx --packets 20000
     dune exec bin/rakis_run.exe -- redis --env gramine-sgx --command get

   The Testing Module has its own entry points, bin/tm_verify and
   bin/tm_fuzz. *)

open Cmdliner

let env_conv =
  let parse s =
    match
      List.find_opt
        (fun k -> Libos.Env.kind_name k = String.lowercase_ascii s)
        Libos.Env.all
    with
    | Some k -> Ok k
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown environment %S (expected: %s)" s
                (String.concat ", " (List.map Libos.Env.kind_name Libos.Env.all))))
  in
  Arg.conv (parse, fun ppf k -> Format.pp_print_string ppf (Libos.Env.kind_name k))

let env_arg =
  Arg.(
    value
    & opt env_conv Libos.Env.Rakis_sgx
    & info [ "env" ] ~docv:"ENV"
        ~doc:
          "Test environment: native, gramine-direct, gramine-sgx, \
           rakis-direct or rakis-sgx.")

let harness ?rakis_config ?nic_queues kind =
  match Apps.Harness.make kind ?rakis_config ?nic_queues () with
  | Ok h -> h
  | Error e ->
      Format.eprintf "boot failed: %s@." e;
      exit 1

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the runtime's metrics registry (counters, gauges, \
           histograms) after the workload.  RAKIS environments only.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the runtime's trace ring to $(docv) as Chrome trace_event \
           JSON (open in chrome://tracing or ui.perfetto.dev).  RAKIS \
           environments only.")

let faults_arg =
  Arg.(
    value & opt string ""
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Host-fault plan injected during the workload: ';'-separated \
           entries '@P=fault', 'once[@P]=fault', 'STEP=fault' or \
           'A..B@P=fault' (e.g. \
           '@0.05=transient-errno;200=monitor-crash').  Arms the enclave \
           watchdog.  RAKIS environments only.")

let fault_seed_arg =
  Arg.(
    value & opt int 7
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:"Fault injector RNG seed (runs replay bit-for-bit per seed).")

(* Degraded-mode knobs (DESIGN.md §9), threaded into the RAKIS config. *)
let degraded_arg =
  Arg.(
    value
    & opt bool Rakis.Config.default.Rakis.Config.degraded
    & info [ "degraded" ] ~docv:"BOOL"
        ~doc:
          "Enable circuit breakers + exit-based slow-path failover \
           (DESIGN.md §9).  $(b,--degraded=false) restores the PR 4 \
           behaviour: persistent FIOKP failure surfaces as ETIMEDOUT.")

let breaker_threshold_arg =
  Arg.(
    value & opt (some int) None
    & info [ "breaker-threshold" ] ~docv:"N"
        ~doc:"Consecutive terminal failures that open a breaker.")

let breaker_cooldown_arg =
  Arg.(
    value & opt (some int64) None
    & info [ "breaker-cooldown" ] ~docv:"CYCLES"
        ~doc:"Open-state cooldown before the first half-open probe.")

let breaker_probes_arg =
  Arg.(
    value & opt (some int) None
    & info [ "breaker-probes" ] ~docv:"N"
        ~doc:"Consecutive probe successes needed to close a breaker.")

let zerocopy_arg =
  Arg.(
    value & flag
    & info [ "zerocopy" ]
        ~doc:
          "Enable the zero-copy io_uring datapath (docs/zerocopy.md): \
           SEND_ZC from registered frames, fixed-buffer file IO and \
           multishot recv.  RAKIS environments only.")

let queues_arg =
  Arg.(
    value & opt int 1
    & info [ "queues" ] ~docv:"N"
        ~doc:
          "Datapath shards (DESIGN.md §10): one XSK set + UMem + stack + \
           Monitor per shard, NIC queues spread across them by RSS.  \
           Default 1 (the single-queue datapath).  RAKIS environments only.")

let overload_arg =
  Arg.(
    value & flag
    & info [ "overload" ]
        ~doc:
          "Enable shard-aware overload control (DESIGN.md §15): CoDel \
           sojourn tracking + hysteretic watermarks on every shard queue, \
           token-bucket admission with priority classes (breaker probes \
           are never shed), and backpressure that throttles xFill refills \
           so a flood dies at the host NIC.  Every refusal is counted \
           under overload.* in $(b,--metrics).  RAKIS environments only.")

let slo_p99_arg =
  Arg.(
    value
    & opt (some int64) None
    & info [ "slo-p99" ] ~docv:"CYCLES"
        ~doc:
          "p99 latency objective in cycles for admitted requests (informs \
           the controller's deadline shedding; default 2.4M = 1 ms).")

let health_config_term =
  let apply degraded threshold cooldown probes queues zerocopy overload slo_p99
      =
    let cfg =
      {
        Rakis.Config.default with
        degraded;
        num_queues = queues;
        zerocopy;
        overload;
      }
    in
    let cfg =
      match slo_p99 with
      | Some v -> { cfg with Rakis.Config.slo_p99 = v }
      | None -> cfg
    in
    let cfg =
      match threshold with
      | Some v -> { cfg with Rakis.Config.breaker_threshold = v }
      | None -> cfg
    in
    let cfg =
      match cooldown with
      | Some v -> { cfg with Rakis.Config.breaker_cooldown = v }
      | None -> cfg
    in
    match probes with
    | Some v -> { cfg with Rakis.Config.breaker_probes = v }
    | None -> cfg
  in
  Cmdliner.Term.(
    const apply $ degraded_arg $ breaker_threshold_arg $ breaker_cooldown_arg
    $ breaker_probes_arg $ queues_arg $ zerocopy_arg $ overload_arg
    $ slo_p99_arg)

(* The NIC must expose at least as many hardware queues as the config
   asks shards for. *)
let sharded_harness cfg env =
  harness ~rakis_config:cfg
    ~nic_queues:(max 4 cfg.Rakis.Config.num_queues)
    env

(* Install the fault plan on a booted harness: injector + watchdog + a
   step clock ticking every 10 simulated µs (the At_step/Burst domain —
   workloads here have no campaign step counter).  The tick process is
   perpetual, which is fine: every workload below stops the engine
   explicitly or runs to a horizon. *)
let install_faults h ~spec ~seed =
  if spec = "" then None
  else
    match Hostos.Faults.plan_of_string spec with
    | Error e ->
        Format.eprintf "bad --faults plan: %s@." e;
        exit 2
    | Ok plan -> (
        match Libos.Env.runtime h.Apps.Harness.env with
        | None ->
            Format.eprintf
              "note: --faults requires a RAKIS environment (rakis-direct or \
               rakis-sgx)@.";
            None
        | Some rt ->
            let f =
              Hostos.Faults.create ~obs:(Rakis.Runtime.obs rt)
                ~seed:(Int64.of_int seed) ()
            in
            Hostos.Faults.install_plan f plan;
            Hostos.Kernel.set_faults h.Apps.Harness.kernel (Some f);
            Rakis.Runtime.start_watchdog rt;
            Sim.Engine.spawn h.Apps.Harness.engine ~name:"fault-clock"
              (fun () ->
                let rec tick step =
                  Hostos.Faults.set_step f step;
                  Sim.Engine.delay (Sim.Cycles.of_us 10.);
                  tick (step + 1)
                in
                tick 0);
            Some f)

let report_faults h injector =
  match injector with
  | None -> ()
  | Some f ->
      Format.printf "faults injected: %s@."
        (match Hostos.Faults.injected_counts f with
        | [] -> "(none)"
        | counts ->
            String.concat ", "
              (List.map
                 (fun (fault, n) ->
                   Printf.sprintf "%s x%d" (Hostos.Faults.fault_name fault) n)
                 counts));
      (match Libos.Env.runtime h.Apps.Harness.env with
      | Some rt ->
          Format.printf "watchdog restarts: %d (degraded scans: %d)@."
            (Rakis.Runtime.watchdog_restarts rt)
            (Rakis.Runtime.watchdog_degraded_scans rt);
          let pb name b =
            if
              Rakis.Health.opens b > 0
              || Rakis.Health.failovers b > 0
              || Rakis.Health.sheds b > 0
            then
              Format.printf
                "breaker %-5s state=%s opens=%d closes=%d failovers=%d \
                 probes=%d sheds=%d@."
                name
                (Rakis.Health.state_name (Rakis.Health.state b))
                (Rakis.Health.opens b) (Rakis.Health.closes b)
                (Rakis.Health.failovers b)
                (Rakis.Health.probes_sent b)
                (Rakis.Health.sheds b)
          in
          pb "xsk" (Rakis.Runtime.xsk_breaker rt);
          for k = 1 to Rakis.Runtime.shard_count rt - 1 do
            pb
              (Printf.sprintf "xsk.%d" k)
              (Rakis.Runtime.shard_breaker rt k)
          done;
          pb "uring" (Rakis.Runtime.uring_breaker rt);
          pb "mm" (Rakis.Runtime.mm_breaker rt);
          let slow =
            Obs.Metrics.get_counter
              (Obs.metrics (Rakis.Runtime.obs rt))
              "health.slow_calls"
          in
          if slow > 0 then Format.printf "slow-path calls: %d@." slow
      | None -> ())

let dump_obs ~metrics ~trace_file h =
  match Libos.Env.runtime h.Apps.Harness.env with
  | None ->
      if metrics || trace_file <> None then
        Format.eprintf
          "note: --metrics/--trace require a RAKIS environment (rakis-direct \
           or rakis-sgx)@."
  | Some rt ->
      let obs = Rakis.Runtime.obs rt in
      if metrics then
        Format.printf "@.== metrics ==@.%a@." Obs.Metrics.pp (Obs.metrics obs);
      (match trace_file with
      | None -> ()
      | Some file ->
          let tr = Obs.trace obs in
          Out_channel.with_open_text file (fun oc ->
              let ppf = Format.formatter_of_out_channel oc in
              Obs.Trace.to_chrome
                ~us_per_cycle:(1e6 /. Sim.Cycles.frequency_hz)
                ppf tr;
              Format.pp_print_flush ppf ());
          Format.printf "trace: %d events written to %s (%d dropped)@."
            (List.length (Obs.Trace.events tr))
            file (Obs.Trace.dropped tr))

let report ?(metrics = false) ?trace_file h =
  Format.printf "enclave exits: %d@." (Libos.Env.exits h.Apps.Harness.env);
  (match Libos.Env.runtime h.Apps.Harness.env with
  | None -> ()
  | Some rt ->
      Format.printf
        "rakis: ring-check failures %d, descriptor/CQE rejects %d, invariants %s@."
        (Rakis.Runtime.total_ring_check_failures rt)
        (Rakis.Runtime.total_desc_rejects rt)
        (if Rakis.Runtime.invariant_holds rt then "held" else "BROKEN");
      if (Rakis.Runtime.config rt).Rakis.Config.zerocopy then
        Format.printf
          "zerocopy: sends %d, fallbacks %d, notifs %d, notif rejects %d, \
           leaks %d@."
          (Rakis.Runtime.total_zc_sends rt)
          (Rakis.Runtime.total_zc_fallbacks rt)
          (Rakis.Runtime.total_zc_notifs rt)
          (Rakis.Runtime.total_zc_notif_rejects rt)
          (Rakis.Runtime.total_zc_leaks rt);
      if (Rakis.Runtime.config rt).Rakis.Config.overload then
        Format.printf
          "overload: admitted %d, shed %d (control %d), edge drops %d, fill \
           throttles %d@."
          (Rakis.Runtime.total_overload_admitted rt)
          (Rakis.Runtime.total_overload_shed rt)
          (Rakis.Runtime.total_control_shed rt)
          (Rakis.Runtime.total_edge_drops rt)
          (Rakis.Runtime.total_fill_throttles rt));
  dump_obs ~metrics ~trace_file h

let hello_cmd =
  let run env =
    let h = harness env in
    Format.printf "%a@." Apps.Helloworld.pp_result (Apps.Helloworld.run h)
  in
  Cmd.v (Cmd.info "hello" ~doc:"HelloWorld baseline (Figure 2 floor)")
    Term.(const run $ env_arg)

let iperf_cmd =
  let packets =
    Arg.(value & opt int 12000 & info [ "packets" ] ~doc:"Datagrams to offer.")
  in
  let size =
    Arg.(value & opt int 1460 & info [ "size" ] ~doc:"UDP payload bytes.")
  in
  let streams =
    Arg.(value & opt int 4 & info [ "streams" ] ~doc:"Parallel client streams.")
  in
  let run env cfg packets size streams faults fault_seed metrics trace_file =
    let h = sharded_harness cfg env in
    let injector = install_faults h ~spec:faults ~seed:fault_seed in
    let r = Apps.Iperf.run ~streams h ~packet_size:size ~packets in
    Format.printf "%a@." Apps.Iperf.pp_result r;
    report_faults h injector;
    report ~metrics ?trace_file h
  in
  Cmd.v (Cmd.info "iperf" ~doc:"iperf3-style UDP throughput (Figure 4a)")
    Term.(
      const run $ env_arg $ health_config_term $ packets $ size $ streams
      $ faults_arg $ fault_seed_arg $ metrics_arg $ trace_arg)

let iperf_tcp_cmd =
  let mbytes =
    Arg.(value & opt int 8 & info [ "mbytes" ] ~doc:"MiB to stream.")
  in
  let chunk =
    Arg.(value & opt int 16384 & info [ "chunk" ] ~doc:"Bytes per send call.")
  in
  let run env cfg mbytes chunk faults fault_seed metrics trace_file =
    let h = sharded_harness cfg env in
    let injector = install_faults h ~spec:faults ~seed:fault_seed in
    let r =
      Apps.Iperf_tcp.run ~chunk_size:chunk h ~bytes:(mbytes * 1024 * 1024)
    in
    Format.printf "%a@." Apps.Iperf_tcp.pp_result r;
    report_faults h injector;
    report ~metrics ?trace_file h
  in
  Cmd.v
    (Cmd.info "iperf_tcp"
       ~doc:
         "iperf3-style TCP bulk send, enclave as sender — the SEND_ZC \
          showcase; compare cycles/byte with and without $(b,--zerocopy)")
    Term.(
      const run $ env_arg $ health_config_term $ mbytes $ chunk $ faults_arg
      $ fault_seed_arg $ metrics_arg $ trace_arg)

let memcached_cmd =
  let threads =
    Arg.(value & opt int 4 & info [ "threads" ] ~doc:"Server threads.")
  in
  let ops = Arg.(value & opt int 10000 & info [ "ops" ] ~doc:"Operations.") in
  let run env cfg threads ops faults fault_seed metrics trace_file =
    let h =
      sharded_harness { cfg with Rakis.Config.num_xsks = threads } env
    in
    let injector = install_faults h ~spec:faults ~seed:fault_seed in
    let r = Apps.Memcached.run h ~server_threads:threads ~ops in
    Format.printf "%a@." Apps.Memcached.pp_result r;
    report_faults h injector;
    report ~metrics ?trace_file h
  in
  Cmd.v (Cmd.info "memcached" ~doc:"memcached over UDP (Figure 4c)")
    Term.(
      const run $ env_arg $ health_config_term $ threads $ ops $ faults_arg
      $ fault_seed_arg $ metrics_arg $ trace_arg)

let curl_cmd =
  let size =
    Arg.(value & opt int 16 & info [ "size-mb" ] ~doc:"File size in MiB.")
  in
  let run env size metrics trace_file =
    let h = harness env in
    let r = Apps.Curl.run h ~file_size:(size * 1024 * 1024) in
    Format.printf "%a@." Apps.Curl.pp_result r;
    report ~metrics ?trace_file h
  in
  Cmd.v (Cmd.info "curl" ~doc:"curl QUIC-style download (Figure 4b)")
    Term.(const run $ env_arg $ size $ metrics_arg $ trace_arg)

let redis_cmd =
  let command_conv =
    Arg.enum
      [ ("ping", Apps.Redis.Ping); ("set", Apps.Redis.Set); ("get", Apps.Redis.Get) ]
  in
  let command =
    Arg.(
      value & opt command_conv Apps.Redis.Get & info [ "command" ] ~doc:"Command.")
  in
  let ops = Arg.(value & opt int 8000 & info [ "ops" ] ~doc:"Operations.") in
  let conns =
    Arg.(value & opt int 50 & info [ "connections" ] ~doc:"Client connections.")
  in
  let run env cfg command ops conns faults fault_seed metrics trace_file =
    let h = sharded_harness cfg env in
    let injector = install_faults h ~spec:faults ~seed:fault_seed in
    let r = Apps.Redis.run ~connections:conns h ~command ~ops in
    Format.printf "%a@." Apps.Redis.pp_result r;
    report_faults h injector;
    report ~metrics ?trace_file h
  in
  Cmd.v (Cmd.info "redis" ~doc:"redis over TCP via io_uring (Figure 5b)")
    Term.(
      const run $ env_arg $ health_config_term $ command $ ops $ conns
      $ faults_arg $ fault_seed_arg $ metrics_arg $ trace_arg)

let fstime_cmd =
  let block =
    Arg.(value & opt int 4096 & info [ "block" ] ~doc:"Write block size.")
  in
  let blocks = Arg.(value & opt int 3000 & info [ "blocks" ] ~doc:"Blocks.") in
  let read_mode = Arg.(value & flag & info [ "read" ] ~doc:"Read test.") in
  let run env cfg block blocks read_mode faults fault_seed metrics trace_file =
    let h = sharded_harness cfg env in
    let injector = install_faults h ~spec:faults ~seed:fault_seed in
    let mode = if read_mode then Apps.Fstime.Read else Apps.Fstime.Write in
    let r = Apps.Fstime.run ~mode h ~block_size:block ~blocks in
    Format.printf "%a@." Apps.Fstime.pp_result r;
    report_faults h injector;
    report ~metrics ?trace_file h
  in
  Cmd.v (Cmd.info "fstime" ~doc:"UnixBench fstime (Figure 5a)")
    Term.(
      const run $ env_arg $ health_config_term $ block $ blocks $ read_mode
      $ faults_arg $ fault_seed_arg $ metrics_arg $ trace_arg)

let mcrypt_cmd =
  let size =
    Arg.(value & opt int 32 & info [ "size-mb" ] ~doc:"File size in MiB.")
  in
  let block =
    Arg.(value & opt int 65536 & info [ "block" ] ~doc:"Read block size.")
  in
  let run env size block metrics trace_file =
    let h = harness env in
    let r = Apps.Mcrypt.run h ~file_size:(size * 1024 * 1024) ~block_size:block in
    Format.printf "%a@." Apps.Mcrypt.pp_result r;
    report ~metrics ?trace_file h
  in
  Cmd.v (Cmd.info "mcrypt" ~doc:"mcrypt file encryption (Figure 5c)")
    Term.(const run $ env_arg $ size $ block $ metrics_arg $ trace_arg)

let udp_echo_cmd =
  let datagrams =
    Arg.(
      value & opt int 2000 & info [ "datagrams" ] ~doc:"Round trips to attempt.")
  in
  let size =
    Arg.(value & opt int 512 & info [ "size" ] ~doc:"UDP payload bytes.")
  in
  let flows =
    Arg.(
      value & opt int 1
      & info [ "flows" ]
          ~doc:
            "Concurrent closed-loop client flows splitting the datagram \
             budget; flows > 1 bind deterministic source ports so RSS \
             spreads them across $(b,--queues) shards.")
  in
  let rdp =
    Arg.(
      value & flag
      & info [ "rdp" ]
          ~doc:
            "Run both ends over RDP reliable datagrams: retransmission \
             recovers wire-fault losses, and whatever RDP abandons is a \
             counted give-up, never silent.")
  in
  let run env cfg datagrams size flows rdp faults fault_seed metrics trace_file
      =
    let h = sharded_harness cfg env in
    let injector = install_faults h ~spec:faults ~seed:fault_seed in
    let r = Apps.Udp_echo.run ~flows ~rdp h ~datagrams ~payload_size:size in
    Format.printf "%a@." Apps.Udp_echo.pp_result r;
    report_faults h injector;
    report ~metrics ?trace_file h;
    if r.Apps.Udp_echo.unaccounted > 0 then begin
      Format.eprintf "FAIL: %d datagrams silently lost (unaccounted)@."
        r.Apps.Udp_echo.unaccounted;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "udp_echo"
       ~doc:
         "Closed-loop UDP echo (paper §1 scenario); the canonical workload \
          for $(b,--metrics)/$(b,--trace), and with $(b,--faults) the \
          recovery smoke test: exits 1 on silent datagram loss — every \
          missing echo must be covered by an accounted loss counter, or \
          not happen at all")
    Term.(
      const run $ env_arg $ health_config_term $ datagrams $ size $ flows
      $ rdp $ faults_arg $ fault_seed_arg $ metrics_arg $ trace_arg)

let loadgen_cmd =
  let conns =
    Arg.(value & opt int 32 & info [ "connections" ] ~doc:"Client connections.")
  in
  let ops =
    Arg.(value & opt int 20000 & info [ "ops" ] ~doc:"Base operations offered.")
  in
  let open_loop =
    Arg.(
      value
      & opt (some int64) None
      & info [ "open" ] ~docv:"CYCLES"
          ~doc:
            "Open-loop arrival with $(docv) cycles between ops per \
             connection (default: closed-loop).")
  in
  let zipf =
    Arg.(
      value & opt float 0.99
      & info [ "zipf" ] ~doc:"Key-popularity skew (0 = uniform).")
  in
  let flash_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "flash-at" ] ~docv:"OP"
          ~doc:"Trigger a flash crowd once $(docv) base ops were offered.")
  in
  let flash_conns =
    Arg.(
      value & opt int 64
      & info [ "flash-connections" ] ~doc:"Extra crowd connections.")
  in
  let flash_ops =
    Arg.(
      value & opt int 20000
      & info [ "flash-ops" ] ~doc:"Ops the crowd offers before leaving.")
  in
  let churn =
    Arg.(
      value & opt int 0
      & info [ "churn-every" ]
          ~doc:"Close/reopen each connection every N ops (0 = never).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Workload RNG seed.")
  in
  let threads =
    Arg.(value & opt int 4 & info [ "threads" ] ~doc:"Server threads.")
  in
  let rdp =
    Arg.(
      value & flag
      & info [ "rdp" ]
          ~doc:
            "Run client and server over RDP reliable datagrams: \
             retransmission recovers wire-fault losses, request dedup \
             keeps retried SETs idempotent, and RDP give-ups are \
             accounted, never silent.")
  in
  let run env cfg conns ops open_loop zipf flash_at flash_conns flash_ops churn
      seed threads rdp faults fault_seed metrics trace_file =
    let h =
      sharded_harness { cfg with Rakis.Config.num_xsks = threads } env
    in
    let injector = install_faults h ~spec:faults ~seed:fault_seed in
    let lg_config =
      {
        Apps.Loadgen.default with
        Apps.Loadgen.mode =
          (match open_loop with
          | Some interarrival -> Apps.Loadgen.Open { interarrival }
          | None -> Apps.Loadgen.default.Apps.Loadgen.mode);
        connections = conns;
        ops;
        zipf;
        churn_every = churn;
        rdp;
        (* RDP absorbs wire faults by retransmitting inside the op's
           reply window: give it one that fits a few RTOs. *)
        timeout =
          (if rdp then Sim.Cycles.of_ms 2.
           else Apps.Loadgen.default.Apps.Loadgen.timeout);
        seed = Int64.of_int seed;
        flash =
          (match flash_at with
          | None -> None
          | Some at_op ->
              Some
                {
                  Apps.Loadgen.at_op;
                  extra_connections = flash_conns;
                  crowd_ops = flash_ops;
                });
      }
    in
    let s = Apps.Loadgen.run ~config:lg_config h ~server_threads:threads in
    Format.printf "%a@." Apps.Loadgen.pp_stats s;
    report_faults h injector;
    report ~metrics ?trace_file h;
    if s.Apps.Loadgen.unaccounted > 0 then begin
      Format.eprintf "FAIL: %d ops silently lost (unaccounted)@."
        s.Apps.Loadgen.unaccounted;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "KV load generator over the XSK datapath (DESIGN.md §15): Zipf \
          key popularity, open- or closed-loop arrival, flash crowds and \
          connection churn; exits 1 on silent (unaccounted) op loss.  \
          Pair with $(b,--overload) to exercise admission control")
    Term.(
      const run $ env_arg $ health_config_term $ conns $ ops $ open_loop
      $ zipf $ flash_at $ flash_conns $ flash_ops $ churn $ seed $ threads
      $ rdp $ faults_arg $ fault_seed_arg $ metrics_arg $ trace_arg)

let () =
  let info =
    Cmd.info "rakis_run" ~version:"1.0"
      ~doc:"Run the RAKIS reproduction's workloads"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            hello_cmd;
            udp_echo_cmd;
            iperf_cmd;
            iperf_tcp_cmd;
            memcached_cmd;
            curl_cmd;
            redis_cmd;
            loadgen_cmd;
            fstime_cmd;
            mcrypt_cmd;
          ]))
