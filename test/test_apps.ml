(* Workload correctness and figure-shape tests at reduced scale: the
   same checks EXPERIMENTS.md makes at full scale, kept cheap enough for
   `dune runtest`. *)

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let harness kind ?rakis_config ?nic_queues () =
  match Apps.Harness.make kind ?rakis_config ?nic_queues () with
  | Ok h -> h
  | Error e -> Alcotest.fail e

(* Every e2e workload must hand back every UMem frame it borrowed:
   conservation across free/rx/tx/limbo, nothing stuck in limbo, and
   the runtime-wide invariants (which re-check conservation per FM).
   Non-RAKIS environments have no runtime and nothing to leak. *)
let assert_no_leaks h =
  match Libos.Env.runtime h.Apps.Harness.env with
  | None -> ()
  | Some rt ->
      Array.iter
        (fun fm ->
          let u = Rakis.Xsk_fm.umem fm in
          check_bool "umem conservation" true (Rakis.Umem.conservation_holds u);
          check "no limbo frames" 0 (Rakis.Umem.limbo u))
        (Rakis.Runtime.xsk_fms rt);
      check_bool "runtime invariant holds" true (Rakis.Runtime.invariant_holds rt)

(* Run an app closure against a fresh harness, then audit for leaks. *)
let with_harness kind ?rakis_config ?nic_queues f =
  let h = harness kind ?rakis_config ?nic_queues () in
  let r = f h in
  assert_no_leaks h;
  r

(* On an honest host a RAKIS run never leaves the fast path
   ({!Apps.Harness.fast_path_verdict}); other environments have none.
   Unless [host_calls] (file and TCP workloads, whose open, connect and
   close RAKIS does not accelerate), the run takes no host-call exit
   either: UDP workloads make no such syscall. *)
let assert_fast_path ?(host_calls = false) h =
  match
    (Libos.Env.runtime h.Apps.Harness.env, Apps.Harness.fast_path_verdict h)
  with
  | None, _ -> ()
  | Some rt, Apps.Harness.Held ->
      if not host_calls then
        check "unaccelerated-syscall exits" 0
          (Rakis.Runtime.totals rt).host_call_exits
  | Some _, v -> Alcotest.failf "fast path: %a" Apps.Harness.pp_fast_path v

let with_fast_path ?host_calls ?rakis_config kind f =
  with_harness kind ?rakis_config (fun h ->
      let r = f h in
      assert_fast_path ?host_calls h;
      r)

(* {1 helloworld} *)

let test_helloworld_output_everywhere () =
  List.iter
    (fun kind ->
      let r = with_harness kind (fun h -> Apps.Helloworld.run h) in
      Alcotest.(check string)
        (Libos.Env.kind_name kind ^ " output")
        "Hello, world!\n" r.output)
    Libos.Env.all

let test_helloworld_exit_floor () =
  let gramine = Apps.Helloworld.run (harness Libos.Env.Gramine_sgx ()) in
  let native = Apps.Helloworld.run (harness Libos.Env.Native ()) in
  check_bool "gramine pays exits" true (gramine.exits > 0);
  check "native pays none" 0 native.exits

(* {1 iperf} *)

let test_iperf_delivers_native () =
  let r =
    with_harness Libos.Env.Native (fun h ->
        Apps.Iperf.run ~streams:1 h ~packet_size:512 ~packets:500)
  in
  check "all delivered (offered below capacity)" 500 r.received_packets;
  check_bool "positive goodput" true (r.goodput_gbps > 0.)

let test_iperf_rakis_beats_gramine_sgx () =
  let run kind =
    with_fast_path kind (fun h -> Apps.Iperf.run h ~packet_size:1460 ~packets:3000)
  in
  let rakis = run Libos.Env.Rakis_sgx in
  let gramine = run Libos.Env.Gramine_sgx in
  check_bool "paper shape: RAKIS-SGX well above Gramine-SGX" true
    (rakis.goodput_gbps > 2. *. gramine.goodput_gbps)

let test_iperf_figure2_exit_counts () =
  (* Figure 2: Gramine's exits scale with packets; RAKIS's stay at the
     HelloWorld-level floor. *)
  let run kind =
    let h = harness kind () in
    (* One stream below capacity so nothing is dropped and the per-
       packet exit count is exact. *)
    let r = Apps.Iperf.run ~streams:1 h ~packet_size:512 ~packets:500 in
    assert_no_leaks h;
    assert_fast_path h;
    (r, Libos.Env.exits h.env)
  in
  let gr, gramine = run Libos.Env.Gramine_sgx in
  let _, rakis = run Libos.Env.Rakis_sgx in
  check "gramine dropped nothing" 500 gr.received_packets;
  check_bool "gramine >= one exit per packet" true (gramine >= 500);
  check_bool "rakis exits are boot-only" true (rakis < 50)

(* 10k datagrams overrun the server's XSK rings, and the first FIN
   round lands while they are still full: all eight FINs are dropped.
   The client must repeat a FIN until the server sees one, not leave the
   run to the 30 s horizon. *)
let test_iperf_ends_by_fin () =
  let r =
    with_fast_path Libos.Env.Rakis_sgx (fun h ->
        Apps.Iperf.run h ~packet_size:1460 ~packets:10_000)
  in
  check_bool "ended by FIN, not at the horizon" false r.ended_at_horizon

(* {1 memcached} *)

let test_memcached_completes_everywhere () =
  List.iter
    (fun kind ->
      let r =
        with_fast_path kind (fun h ->
            Apps.Memcached.run h ~server_threads:2 ~ops:300)
      in
      check_bool
        (Libos.Env.kind_name kind ^ " completes")
        true
        (r.completed_ops >= 300))
    [ Libos.Env.Native; Libos.Env.Rakis_sgx; Libos.Env.Gramine_sgx ]

let test_memcached_scales_with_threads () =
  let run threads =
    (Apps.Memcached.run (harness Libos.Env.Native ()) ~server_threads:threads
       ~ops:2000)
      .kops_per_sec
  in
  let one = run 1 and four = run 4 in
  check_bool "4 threads beat 1" true (four > 1.5 *. one)

let test_memcached_rakis_vs_gramine () =
  let run kind =
    (with_fast_path kind (fun h -> Apps.Memcached.run h ~server_threads:2 ~ops:1500))
      .Apps.Memcached.kops_per_sec
  in
  let rakis = run Libos.Env.Rakis_sgx in
  let gramine = run Libos.Env.Gramine_sgx in
  check_bool "paper shape (C3 direction)" true (rakis > 2. *. gramine)

(* {1 curl} *)

let test_curl_transfers_whole_file () =
  let size = 1024 * 1024 in
  let r =
    with_fast_path Libos.Env.Rakis_sgx (fun h -> Apps.Curl.run h ~file_size:size)
  in
  let chunks = (size + Apps.Curl.chunk_payload - 1) / Apps.Curl.chunk_payload in
  check_bool "all chunks arrived" true
    (r.received_bytes >= chunks * Apps.Curl.chunk_payload);
  check_bool "finished" true (r.seconds > 0.)

let test_curl_gramine_sgx_slower () =
  let size = 2 * 1024 * 1024 in
  let run kind =
    (with_fast_path kind (fun h -> Apps.Curl.run h ~file_size:size))
      .Apps.Curl.seconds
  in
  let native = run Libos.Env.Native in
  let rakis = run Libos.Env.Rakis_sgx in
  let gramine = run Libos.Env.Gramine_sgx in
  check_bool "rakis within 25% of native (C2)" true (rakis < 1.25 *. native);
  check_bool "gramine-sgx at least 2x native" true (gramine > 2. *. native)

(* {1 redis} *)

let test_redis_all_commands () =
  List.iter
    (fun command ->
      let r =
        with_fast_path ~host_calls:true Libos.Env.Rakis_sgx (fun h ->
            Apps.Redis.run ~connections:10 h ~command ~ops:300)
      in
      check_bool
        (Apps.Redis.command_name command ^ " completes")
        true
        (r.completed_ops >= 300))
    [ Apps.Redis.Ping; Apps.Redis.Set; Apps.Redis.Get ]

let test_redis_rakis_vs_gramine () =
  let run kind =
    (with_fast_path ~host_calls:true kind (fun h ->
         Apps.Redis.run ~connections:20 h ~command:Apps.Redis.Get ~ops:1000))
      .Apps.Redis.kops_per_sec
  in
  let rakis = run Libos.Env.Rakis_sgx in
  let gramine = run Libos.Env.Gramine_sgx in
  check_bool "paper shape (C5 direction)" true (rakis > 1.5 *. gramine)

(* {1 fstime} *)

let test_fstime_write_then_read () =
  let w =
    with_harness Libos.Env.Native (fun h ->
        Apps.Fstime.run ~mode:Apps.Fstime.Write h ~block_size:4096 ~blocks:100)
  in
  check "bytes written" (4096 * 100) w.bytes;
  let r =
    with_harness Libos.Env.Native (fun h ->
        Apps.Fstime.run ~mode:Apps.Fstime.Read h ~block_size:4096 ~blocks:100)
  in
  check "bytes read" (4096 * 100) r.bytes;
  let c =
    with_fast_path ~host_calls:true Libos.Env.Rakis_sgx (fun h ->
        Apps.Fstime.run ~mode:Apps.Fstime.Copy h ~block_size:4096 ~blocks:100)
  in
  check "bytes copied" (4096 * 100) c.bytes

let test_fstime_rakis_beats_gramine_sgx () =
  let run kind =
    (with_fast_path ~host_calls:true kind (fun h ->
         Apps.Fstime.run h ~block_size:4096 ~blocks:500))
      .Apps.Fstime.mb_per_sec
  in
  let rakis = run Libos.Env.Rakis_sgx in
  let gramine = run Libos.Env.Gramine_sgx in
  check_bool "paper shape (C4 direction)" true (rakis > 1.5 *. gramine)

let test_fstime_rakis_sgx_overhead_vs_direct () =
  (* Figure 5(a): at large blocks RAKIS-SGX pays boundary copies that
     RAKIS-Direct does not. *)
  let run kind =
    (with_fast_path ~host_calls:true kind (fun h ->
         Apps.Fstime.run h ~block_size:65536 ~blocks:200))
      .Apps.Fstime.mb_per_sec
  in
  let direct = run Libos.Env.Rakis_direct in
  let sgx = run Libos.Env.Rakis_sgx in
  check_bool "direct faster at large blocks" true (direct > sgx)

(* {1 iperf_tcp} *)

(* The enclave as TCP sender, on the copy path and on SEND_ZC: every
   byte arrives, and the connection's setup and teardown are its only
   exits past boot. *)
let test_iperf_tcp_holds_fast_path () =
  List.iter
    (fun zerocopy ->
      let bytes = 1024 * 1024 in
      let r =
        with_fast_path ~host_calls:true
          ~rakis_config:{ Rakis.Config.default with zerocopy }
          Libos.Env.Rakis_sgx
          (fun h -> Apps.Iperf_tcp.run h ~bytes)
      in
      check (Printf.sprintf "zerocopy=%b: every byte received" zerocopy) bytes
        r.Apps.Iperf_tcp.bytes_received)
    [ false; true ]

(* {1 mcrypt} *)

let test_mcrypt_cipher_is_involution () =
  let block = Bytes.of_string "the quick brown fox jumps over.." in
  let original = Bytes.copy block in
  Apps.Mcrypt.encrypt_block ~key:42L block;
  check_bool "changed" true (not (Bytes.equal block original));
  Apps.Mcrypt.encrypt_block ~key:42L block;
  check_bool "restored" true (Bytes.equal block original)

let test_mcrypt_same_ciphertext_everywhere () =
  (* The checksum of the ciphertext must be identical across
     environments: the environments change costs, never data. *)
  let size = 1024 * 1024 in
  let run kind =
    (with_fast_path ~host_calls:true kind (fun h ->
         Apps.Mcrypt.run h ~file_size:size ~block_size:65536))
      .Apps.Mcrypt.checksum
  in
  let native = run Libos.Env.Native in
  check "rakis-sgx matches" native (run Libos.Env.Rakis_sgx);
  check "gramine-sgx matches" native (run Libos.Env.Gramine_sgx)

let test_mcrypt_compute_bound () =
  (* C6 shape: all environments within ~25% of native on this
     compute-dominated workload. *)
  let size = 2 * 1024 * 1024 in
  let run kind =
    (with_fast_path ~host_calls:true kind (fun h ->
         Apps.Mcrypt.run h ~file_size:size ~block_size:65536))
      .Apps.Mcrypt.seconds
  in
  let native = run Libos.Env.Native in
  let gramine = run Libos.Env.Gramine_sgx in
  let rakis = run Libos.Env.Rakis_sgx in
  check_bool "rakis within 10% of native" true (rakis < 1.10 *. native);
  check_bool "gramine within 25% of native" true (gramine < 1.25 *. native);
  check_bool "rakis faster than gramine-sgx" true (rakis < gramine)

(* {1 Loss accounting} *)

(* A host UDP socket closed with datagrams still queued (a client
   recycling a timed-out connection) must count each one: they are
   deaths, and the harness's loss owner has to explain them. *)
let test_close_drops_accounted () =
  let h = harness Libos.Env.Native () in
  let api = Apps.Harness.api h and peer = h.Apps.Harness.peer in
  let kstats = Sim.Engine.stats h.Apps.Harness.engine in
  let n = 5 in
  let delta = ref None in
  Sim.Engine.spawn h.Apps.Harness.engine (fun () ->
      let server = api.Libos.Api.udp_socket () in
      let dst = (Packet.Addr.Ip.of_repr "10.0.0.1", 7777) in
      (match api.Libos.Api.bind server dst with
      | Ok () -> ()
      | Error e -> Alcotest.failf "bind: %a" Abi.Errno.pp e);
      let client = peer.Libos.Api.udp_socket () in
      for i = 1 to n do
        match peer.Libos.Api.sendto client (Bytes.make 32 (Char.chr i)) dst with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "sendto: %a" Abi.Errno.pp e
      done;
      Sim.Engine.delay (Sim.Cycles.of_us 1000.);
      let before = Apps.Harness.accounted h in
      ignore (api.Libos.Api.close server);
      delta :=
        Some
          ( Sim.Stats.get kstats "udp.close_drops",
            Apps.Harness.accounted h - before );
      Apps.Harness.stop h);
  Apps.Harness.run ~until:(Sim.Cycles.of_sec 1.) h;
  match !delta with
  | None -> Alcotest.fail "script did not finish"
  | Some (close_drops, accounted) ->
      check "udp.close_drops" n close_drops;
      check "Harness.accounted grows by the queued datagrams" n accounted

let suite =
  [
    ("helloworld: same output everywhere", `Quick,
     test_helloworld_output_everywhere);
    ("helloworld: exit floor", `Quick, test_helloworld_exit_floor);
    ("iperf: lossless below capacity", `Quick, test_iperf_delivers_native);
    ("iperf: rakis-sgx beats gramine-sgx (C1 direction)", `Slow,
     test_iperf_rakis_beats_gramine_sgx);
    ("iperf: figure 2 exit counts", `Slow, test_iperf_figure2_exit_counts);
    ("memcached: completes under native/rakis/gramine", `Slow,
     test_memcached_completes_everywhere);
    ("memcached: scales with server threads", `Slow,
     test_memcached_scales_with_threads);
    ("memcached: rakis vs gramine (C3 direction)", `Slow,
     test_memcached_rakis_vs_gramine);
    ("curl: transfers the whole file", `Slow, test_curl_transfers_whole_file);
    ("curl: gramine-sgx downloads slower (C2)", `Slow,
     test_curl_gramine_sgx_slower);
    ("redis: PING/SET/GET complete", `Slow, test_redis_all_commands);
    ("redis: rakis vs gramine (C5 direction)", `Slow,
     test_redis_rakis_vs_gramine);
    ("fstime: write and read modes", `Quick, test_fstime_write_then_read);
    ("fstime: rakis vs gramine (C4 direction)", `Slow,
     test_fstime_rakis_beats_gramine_sgx);
    ("fstime: rakis-sgx copy overhead vs direct", `Slow,
     test_fstime_rakis_sgx_overhead_vs_direct);
    ("mcrypt: cipher is an involution", `Quick, test_mcrypt_cipher_is_involution);
    ("mcrypt: identical ciphertext in all environments", `Slow,
     test_mcrypt_same_ciphertext_everywhere);
    ("mcrypt: compute-bound parity (C6 direction)", `Slow,
     test_mcrypt_compute_bound);
    ("accounting: socket close counts queued datagrams", `Quick,
     test_close_drops_accounted);
    ("iperf: 10k datagrams end by FIN", `Quick, test_iperf_ends_by_fin);
    ("iperf_tcp: copy and zero-copy hold the fast path", `Quick,
     test_iperf_tcp_holds_fast_path);
  ]
