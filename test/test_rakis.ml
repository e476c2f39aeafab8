(* Tests for RAKIS proper: UMem ownership allocator, the XSK and
   io_uring FastPath Modules (including initialization validation and
   behaviour under the adversarial kernel), SyncProxy and the Monitor
   Module. *)

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* {1 UMem allocator} *)

let umem () = Rakis.Umem.create ~size:(8 * 64) ~frame_size:64 ()

let test_umem_initially_owned () =
  let u = umem () in
  check "all free" 8 (Rakis.Umem.free_frames u);
  check "frame count" 8 (Rakis.Umem.frame_count u)

let test_umem_alloc_commit_reclaim_cycle () =
  let u = umem () in
  let off = Option.get (Rakis.Umem.alloc u) in
  check "one taken" 7 (Rakis.Umem.free_frames u);
  Rakis.Umem.commit u off Rakis.Umem.Rx;
  check "outstanding rx" 1 (Rakis.Umem.outstanding u Rakis.Umem.Rx);
  (match Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:off ~len:60 () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reclaim: %a" Rakis.Umem.pp_reject e);
  check "back in pool" 8 (Rakis.Umem.free_frames u)

let test_umem_exhaustion () =
  let u = umem () in
  for _ = 1 to 8 do
    ignore (Option.get (Rakis.Umem.alloc u))
  done;
  check_bool "exhausted" true (Rakis.Umem.alloc u = None)

let test_umem_cancel () =
  let u = umem () in
  let off = Option.get (Rakis.Umem.alloc u) in
  Rakis.Umem.cancel u off;
  check "returned" 8 (Rakis.Umem.free_frames u)

let test_umem_reclaim_out_of_range () =
  let u = umem () in
  (match Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:(8 * 64) () with
  | Error (Rakis.Umem.Out_of_range _) -> ()
  | _ -> Alcotest.fail "oob accepted");
  match Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:(-64) () with
  | Error (Rakis.Umem.Out_of_range _) -> ()
  | _ -> Alcotest.fail "negative accepted"

let test_umem_reclaim_misaligned () =
  let u = umem () in
  match Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:3 () with
  | Error (Rakis.Umem.Misaligned 3) -> ()
  | _ -> Alcotest.fail "misaligned accepted"

let test_umem_reclaim_wrong_routine () =
  (* A frame handed to the send routine must not be accepted back from
     the receive routine — the cross-routine confusion attack. *)
  let u = umem () in
  let off = Option.get (Rakis.Umem.alloc u) in
  Rakis.Umem.commit u off Rakis.Umem.Tx;
  (match Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:off () with
  | Error (Rakis.Umem.Wrong_owner _) -> ()
  | _ -> Alcotest.fail "cross-routine reclaim accepted");
  check "reject counted" 1 (Rakis.Umem.rejects u)

let test_umem_double_reclaim () =
  (* The kernel claiming the same frame twice must be refused the
     second time (double-ownership attack). *)
  let u = umem () in
  let off = Option.get (Rakis.Umem.alloc u) in
  Rakis.Umem.commit u off Rakis.Umem.Rx;
  ignore (Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:off ());
  match Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:off () with
  | Error (Rakis.Umem.Wrong_owner _) -> ()
  | _ -> Alcotest.fail "double reclaim accepted"

let test_umem_never_owned_reclaim () =
  let u = umem () in
  match Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:0 () with
  | Error (Rakis.Umem.Wrong_owner _) -> ()
  | _ -> Alcotest.fail "unowned frame accepted"

let test_umem_oversize_len () =
  let u = umem () in
  let off = Option.get (Rakis.Umem.alloc u) in
  Rakis.Umem.commit u off Rakis.Umem.Rx;
  match Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:off ~len:65 () with
  | Error (Rakis.Umem.Oversize _) -> ()
  | _ -> Alcotest.fail "oversize descriptor accepted"

let test_umem_no_duplicate_free_frames () =
  (* After arbitrary (valid) traffic, the free pool never contains the
     same frame twice. *)
  let u = umem () in
  let rng = Sim.Rng.create ~seed:11L in
  let outstanding = ref [] in
  for _ = 1 to 500 do
    if Sim.Rng.bool rng then (
      match Rakis.Umem.alloc u with
      | Some off ->
          let r = if Sim.Rng.bool rng then Rakis.Umem.Rx else Rakis.Umem.Tx in
          Rakis.Umem.commit u off r;
          outstanding := (off, r) :: !outstanding
      | None -> ())
    else
      match !outstanding with
      | [] -> ()
      | (off, r) :: rest ->
          outstanding := rest;
          ignore (Rakis.Umem.reclaim u r ~offset:off ())
  done;
  check "conservation" 8 (Rakis.Umem.free_frames u + List.length !outstanding);
  check "no rejects in honest run" 0 (Rakis.Umem.rejects u)

(* {1 Full-system fixtures} *)

type fixture = {
  engine : Sim.Engine.t;
  kernel : Hostos.Kernel.t;
  runtime : Rakis.Runtime.t;
}

let boot ?config ?(nic_queues = 1) () =
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine ~nic_queues () in
  match Rakis.Runtime.boot kernel ~sgx:true ?config () with
  | Error e -> Alcotest.fail e
  | Ok runtime -> { engine; kernel; runtime }

let small_config =
  {
    Rakis.Config.default with
    ring_size = 64;
    umem_size = 256 * 2048;
    uring_entries = 16;
    max_io_size = 1 lsl 16;
  }

let run_script fx f =
  let finished = ref false in
  Sim.Engine.spawn fx.engine (fun () ->
      f ();
      finished := true;
      Sim.Engine.stop fx.engine);
  Sim.Engine.run ~until:(Sim.Cycles.of_sec 30.) fx.engine;
  if not !finished then Alcotest.fail "script did not finish (deadlock?)"

let native_client fx = Libos.Hostapi.native fx.kernel

let test_breaker () = Rakis.Health.of_config ~name:"t" ~clock:(fun () -> 0L) ()

(* {1 Boot-time validation (Table 2, initialization rows)} *)

let test_boot_rejects_trusted_pointers () =
  (* An XSK whose rings live in trusted memory must be refused. *)
  let engine = Sim.Engine.create () in
  let region = Mem.Region.create ~kind:Trusted ~name:"evil" ~size:(1 lsl 22) in
  let alloc = Mem.Alloc.create region () in
  let kernel = Hostos.Kernel.create engine () in
  let xdp = Hostos.Xdp.create engine ~malice:(ref None) in
  let xsk =
    Hostos.Xdp.create_xsk xdp ~alloc ~umem_size:(64 * 2048) ~frame_size:2048
      ~ring_size:64
  in
  let enclave = Sgx.Enclave.create engine ~sgx:true ~name:"t" in
  let stack =
    Netstack.Stack.create engine ~mac:Rakis.Config.default.mac
      ~ip:Rakis.Config.default.ip ()
  in
  ignore kernel;
  match
    Rakis.Xsk_fm.create ~enclave ~breaker:(test_breaker ())
      ~config:{ small_config with umem_size = 64 * 2048 }
      ~stack ~fd:3 ~xsk ()
  with
  | Error (Rakis.Xsk_fm.Pointer_in_trusted _) -> ()
  | Ok _ -> Alcotest.fail "trusted pointers accepted (Appendix A attack)"
  | Error e -> Alcotest.failf "unexpected: %a" Rakis.Xsk_fm.pp_init_error e

let test_boot_rejects_negative_fd () =
  let engine = Sim.Engine.create () in
  let region = Mem.Region.create ~kind:Untrusted ~name:"sh" ~size:(1 lsl 22) in
  let alloc = Mem.Alloc.create region () in
  let xdp = Hostos.Xdp.create engine ~malice:(ref None) in
  let xsk =
    Hostos.Xdp.create_xsk xdp ~alloc ~umem_size:(64 * 2048) ~frame_size:2048
      ~ring_size:64
  in
  let enclave = Sgx.Enclave.create engine ~sgx:true ~name:"t" in
  let stack =
    Netstack.Stack.create engine ~mac:Rakis.Config.default.mac
      ~ip:Rakis.Config.default.ip ()
  in
  match
    Rakis.Xsk_fm.create ~enclave ~breaker:(test_breaker ())
      ~config:{ small_config with umem_size = 64 * 2048 }
      ~stack ~fd:(-1) ~xsk ()
  with
  | Error (Rakis.Xsk_fm.Bad_fd _) -> ()
  | _ -> Alcotest.fail "negative fd accepted"

let test_boot_validates_config () =
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine () in
  match
    Rakis.Runtime.boot kernel ~sgx:true
      ~config:{ Rakis.Config.default with ring_size = 100 }
      ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-pow2 ring accepted"

let test_iouring_fm_rejects_trusted_bounce () =
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine () in
  let region = Mem.Region.create ~kind:Untrusted ~name:"sh" ~size:(1 lsl 20) in
  let alloc = Mem.Alloc.create region () in
  let _, uring = Hostos.Kernel.uring_create kernel ~alloc ~entries:16 in
  let enclave = Sgx.Enclave.create engine ~sgx:true ~name:"t" in
  let trusted = Mem.Region.create ~kind:Trusted ~name:"tr" ~size:(1 lsl 20) in
  match
    Rakis.Iouring_fm.create ~enclave ~config:small_config
      ~breaker:(test_breaker ()) ~fd:4 ~uring
      ~bounce:(Mem.Ptr.v trusted 0) ()
  with
  | Error (Rakis.Iouring_fm.Pointer_in_trusted _) -> ()
  | _ -> Alcotest.fail "trusted bounce buffer accepted"

(* {1 End-to-end RAKIS UDP} *)

let test_rakis_udp_echo_roundtrip () =
  let fx = boot ~config:small_config () in
  let client = native_client fx in
  (* Enclave-side echo server. *)
  Sim.Engine.spawn fx.engine (fun () ->
      let sock = Rakis.Runtime.udp_socket fx.runtime in
      (match Rakis.Runtime.udp_bind fx.runtime sock 5201 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "bind: %a" Abi.Errno.pp e);
      let rec loop () =
        match Rakis.Runtime.udp_recvfrom fx.runtime sock ~max:2048 with
        | Ok (payload, src) ->
            ignore (Rakis.Runtime.udp_sendto fx.runtime sock payload ~dst:src);
            loop ()
        | Error _ -> ()
      in
      loop ());
  run_script fx (fun () ->
      let fd = client.Libos.Api.udp_socket () in
      (match
         client.Libos.Api.sendto fd (Bytes.of_string "through the rings!")
           (Rakis.Config.default.ip, 5201)
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "client send: %a" Abi.Errno.pp e);
      match client.Libos.Api.recvfrom fd 2048 with
      | Ok (reply, _) ->
          Alcotest.(check string) "echo" "through the rings!"
            (Bytes.to_string reply)
      | Error e -> Alcotest.failf "client recv: %a" Abi.Errno.pp e);
  (* The whole exchange must not have used data-path enclave exits:
     only the boot-time setup ocalls are allowed. *)
  (* The FM also carried the client's ARP request in and the enclave's
     ARP reply out, hence 2 each. *)
  let fm = (Rakis.Runtime.xsk_fms fx.runtime).(0) in
  check "fm received" 2 (Rakis.Xsk_fm.rx_packets fm);
  check "fm sent" 2 (Rakis.Xsk_fm.tx_packets fm);
  check_bool "invariants hold" true (Rakis.Runtime.invariant_holds fx.runtime)

let test_rakis_udp_no_exits_on_data_path () =
  let fx = boot ~config:small_config () in
  let client = native_client fx in
  Sim.Engine.spawn fx.engine (fun () ->
      let sock = Rakis.Runtime.udp_socket fx.runtime in
      ignore (Rakis.Runtime.udp_bind fx.runtime sock 5201);
      let rec loop () =
        match Rakis.Runtime.udp_recvfrom fx.runtime sock ~max:2048 with
        | Ok _ -> loop ()
        | Error _ -> ()
      in
      loop ());
  let exits_after_boot = Sgx.Enclave.exits (Rakis.Runtime.enclave fx.runtime) in
  run_script fx (fun () ->
      let fd = client.Libos.Api.udp_socket () in
      for _ = 1 to 100 do
        ignore
          (client.Libos.Api.sendto fd (Bytes.make 512 'd')
             (Rakis.Config.default.ip, 5201))
      done;
      Sim.Engine.delay (Sim.Cycles.of_ms 1.));
  (* 100 data frames + the client's ARP request. *)
  let fm = (Rakis.Runtime.xsk_fms fx.runtime).(0) in
  check "all received" 101 (Rakis.Xsk_fm.rx_packets fm);
  check "zero data-path exits" exits_after_boot
    (Sgx.Enclave.exits (Rakis.Runtime.enclave fx.runtime))

let test_rakis_batched_path_counts_match_single_op () =
  (* The bursted rx/tx datapath must move exactly the packets the
     per-op path moved: N data frames + 1 ARP in, N echoes + 1 ARP
     reply out, with every frame back in the FM's pool afterwards. *)
  let packets = 37 in
  let fx = boot ~config:small_config () in
  let client = native_client fx in
  Sim.Engine.spawn fx.engine (fun () ->
      let sock = Rakis.Runtime.udp_socket fx.runtime in
      ignore (Rakis.Runtime.udp_bind fx.runtime sock 5201);
      let rec loop () =
        match Rakis.Runtime.udp_recvfrom fx.runtime sock ~max:2048 with
        | Ok (payload, src) ->
            ignore (Rakis.Runtime.udp_sendto fx.runtime sock payload ~dst:src);
            loop ()
        | Error _ -> ()
      in
      loop ());
  run_script fx (fun () ->
      let fd = client.Libos.Api.udp_socket () in
      for i = 1 to packets do
        (match
           client.Libos.Api.sendto fd
             (Bytes.make 200 (Char.chr (Char.code 'a' + (i mod 26))))
             (Rakis.Config.default.ip, 5201)
         with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "send %d: %a" i Abi.Errno.pp e);
        match client.Libos.Api.recvfrom fd 2048 with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "recv %d: %a" i Abi.Errno.pp e
      done;
      Sim.Engine.delay (Sim.Cycles.of_ms 1.));
  let fm = (Rakis.Runtime.xsk_fms fx.runtime).(0) in
  check "rx count matches per-op path" (packets + 1) (Rakis.Xsk_fm.rx_packets fm);
  check "tx count matches per-op path" (packets + 1) (Rakis.Xsk_fm.tx_packets fm);
  (* Burst accounting is consistent: slot totals cover what moved, and
     the rx side needed no more bursts than packets. *)
  let counters = Rakis.Xsk_fm.burst_counters fm in
  let bursts ring = fst (List.assoc ring counters) in
  let slots ring = snd (List.assoc ring counters) in
  check "xRX slots = packets in" (packets + 1) (slots "xRX");
  check_bool "xRX amortized (bursts <= slots)" true
    (bursts "xRX" <= slots "xRX");
  check_bool "xFill bursts ran" true (bursts "xFill" > 0);
  (* Completions reap lazily on the next send, so the final one may
     still be in flight when the script stops. *)
  check_bool "xCompl slots cover the packets out" true
    (slots "xCompl" >= packets);
  (* Ownership drained back: the in-flight counters (satellite of the
     O(1) Umem.outstanding) net out against the free pool. *)
  let u = Rakis.Xsk_fm.umem fm in
  check "conservation"
    (Rakis.Umem.frame_count u)
    (Rakis.Umem.free_frames u
    + Rakis.Umem.outstanding u Rakis.Umem.Rx
    + Rakis.Umem.outstanding u Rakis.Umem.Tx);
  check_bool "at most the final tx frame unreaped" true
    (Rakis.Umem.outstanding u Rakis.Umem.Tx <= 1);
  check_bool "invariants hold" true (Rakis.Runtime.invariant_holds fx.runtime)

let test_rakis_monitor_issues_wakeups () =
  let fx = boot ~config:small_config () in
  let client = native_client fx in
  Sim.Engine.spawn fx.engine (fun () ->
      let sock = Rakis.Runtime.udp_socket fx.runtime in
      ignore (Rakis.Runtime.udp_bind fx.runtime sock 5201);
      (* Send from the enclave: requires an MM sendto wakeup. *)
      ignore
        (Rakis.Runtime.udp_sendto fx.runtime sock (Bytes.of_string "out")
           ~dst:(Hostos.Kernel.client_ip fx.kernel, 7007)));
  run_script fx (fun () ->
      let fd = client.Libos.Api.udp_socket () in
      ignore (client.Libos.Api.bind fd (Hostos.Kernel.client_ip fx.kernel, 7007));
      match client.Libos.Api.recvfrom fd 100 with
      | Ok (payload, _) ->
          Alcotest.(check string) "sent via xsk" "out" (Bytes.to_string payload)
      | Error e -> Alcotest.failf "recv: %a" Abi.Errno.pp e);
  check_bool "MM issued wakeups" true
    (Rakis.Monitor.wakeup_syscalls (Rakis.Runtime.monitor fx.runtime) > 0)

(* {1 Under attack (Table 2 operation rows, end to end)} *)

let attack_fixture attacks =
  let fx = boot ~config:small_config () in
  let m = Hostos.Malice.create ~seed:99L () in
  List.iter (fun (a, p) -> Hostos.Malice.arm m ~probability:p a) attacks;
  Hostos.Kernel.set_malice fx.kernel (Some m);
  (fx, m)

(* Drive traffic at an enclave server under attack; return delivered
   count. *)
let drive_under_attack fx ~packets =
  let client = native_client fx in
  let received = ref 0 in
  Sim.Engine.spawn fx.engine (fun () ->
      let sock = Rakis.Runtime.udp_socket fx.runtime in
      ignore (Rakis.Runtime.udp_bind fx.runtime sock 5201);
      let rec loop () =
        match Rakis.Runtime.udp_recvfrom fx.runtime sock ~max:2048 with
        | Ok _ ->
            incr received;
            loop ()
        | Error _ -> ()
      in
      loop ());
  run_script fx (fun () ->
      let fd = client.Libos.Api.udp_socket () in
      for _ = 1 to packets do
        ignore
          (client.Libos.Api.sendto fd (Bytes.make 256 'a')
             (Rakis.Config.default.ip, 5201))
      done;
      Sim.Engine.delay (Sim.Cycles.of_ms 2.));
  !received

let test_attack_ring_indices () =
  let fx, m =
    attack_fixture
      [
        (Hostos.Malice.Prod_overshoot, 0.2);
        (Hostos.Malice.Prod_regress, 0.2);
        (Hostos.Malice.Cons_overshoot, 0.2);
        (Hostos.Malice.Cons_regress, 0.2);
      ]
  in
  ignore (drive_under_attack fx ~packets:200);
  check_bool "attacks fired" true (Hostos.Malice.fired m > 0);
  check_bool "invariants survived" true
    (Rakis.Runtime.invariant_holds fx.runtime);
  check_bool "hostile indices rejected" true
    (Rakis.Runtime.total_ring_check_failures fx.runtime > 0)

let test_attack_umem_descriptors () =
  let fx, m =
    attack_fixture
      [
        (Hostos.Malice.Bad_umem_offset, 0.1);
        (Hostos.Malice.Misaligned_offset, 0.1);
        (Hostos.Malice.Foreign_frame, 0.1);
        (Hostos.Malice.Oversize_len, 0.1);
      ]
  in
  ignore (drive_under_attack fx ~packets:200);
  check_bool "attacks fired" true (Hostos.Malice.fired m > 0);
  check_bool "descriptors rejected" true
    (let t = Rakis.Runtime.totals fx.runtime in
     t.umem_rejects + t.cqe_rejects > 0);
  check_bool "invariants survived" true
    (Rakis.Runtime.invariant_holds fx.runtime)

let test_attack_corrupt_packets_no_crash () =
  let fx, _ = attack_fixture [ (Hostos.Malice.Corrupt_packet, 0.5) ] in
  let received = drive_under_attack fx ~packets:200 in
  (* Table 2: user data is not checked (left to TLS) — corrupted frames
     either fail a header checksum (drop) or deliver corrupted payload;
     RAKIS must simply survive. *)
  check_bool "still operating" true (received >= 0);
  check_bool "invariants survived" true
    (Rakis.Runtime.invariant_holds fx.runtime)

let test_attack_everything_at_once () =
  let fx, _ =
    attack_fixture
      (List.map (fun a -> (a, 0.15)) Hostos.Malice.all_attacks)
  in
  ignore (drive_under_attack fx ~packets:300);
  check_bool "invariants survived the kitchen sink" true
    (Rakis.Runtime.invariant_holds fx.runtime)

(* {1 SyncProxy / io_uring FM} *)

let test_syncproxy_file_io () =
  let fx = boot ~config:small_config () in
  run_script fx (fun () ->
      match Rakis.Runtime.new_thread fx.runtime with
      | Error e -> Alcotest.fail e
      | Ok thread ->
          let proxy = Rakis.Runtime.syncproxy thread in
          let fd =
            match Hostos.Kernel.openf fx.kernel ~create:true ~trunc:true "/sp" with
            | Ok fd -> fd
            | Error e -> Alcotest.failf "open: %a" Abi.Errno.pp e
          in
          let data = Bytes.of_string "syncproxy writes via io_uring" in
          (match
             Rakis.Syncproxy.write proxy ~fd ~off:0 ~buf:data ~pos:0
               ~len:(Bytes.length data)
           with
          | Ok n -> check "written" (Bytes.length data) n
          | Error e -> Alcotest.failf "write: %a" Abi.Errno.pp e);
          let buf = Bytes.create 64 in
          (match
             Rakis.Syncproxy.read proxy ~fd ~off:0 ~buf ~pos:0 ~len:64
           with
          | Ok n ->
              Alcotest.(check string) "readback"
                "syncproxy writes via io_uring" (Bytes.sub_string buf 0 n)
          | Error e -> Alcotest.failf "read: %a" Abi.Errno.pp e))

let test_syncproxy_chunked_large_write () =
  (* Larger than the bounce buffer: must be split transparently. *)
  let fx = boot ~config:{ small_config with max_io_size = 4096 } () in
  run_script fx (fun () ->
      match Rakis.Runtime.new_thread fx.runtime with
      | Error e -> Alcotest.fail e
      | Ok thread ->
          let proxy = Rakis.Runtime.syncproxy thread in
          let fd =
            Result.get_ok (Hostos.Kernel.openf fx.kernel ~create:true "/big")
          in
          let data = Bytes.init 20000 (fun i -> Char.chr (i land 0xff)) in
          (match
             Rakis.Syncproxy.write proxy ~fd ~off:0 ~buf:data ~pos:0 ~len:20000
           with
          | Ok n -> check "full write" 20000 n
          | Error e -> Alcotest.failf "write: %a" Abi.Errno.pp e);
          let buf = Bytes.create 20000 in
          let rec read_all off =
            if off < 20000 then begin
              match
                Rakis.Syncproxy.read proxy ~fd ~off ~buf ~pos:off
                  ~len:(20000 - off)
              with
              | Ok 0 -> ()
              | Ok n -> read_all (off + n)
              | Error e -> Alcotest.failf "read: %a" Abi.Errno.pp e
            end
          in
          read_all 0;
          check_bool "contents match" true (Bytes.equal buf data))

let test_iouring_fm_rejects_forged_cqe () =
  let fx, m =
    attack_fixture [ (Hostos.Malice.Cqe_wrong_user_data, 1.0) ]
  in
  run_script fx (fun () ->
      match Rakis.Runtime.new_thread fx.runtime with
      | Error e -> Alcotest.fail e
      | Ok thread ->
          let proxy = Rakis.Runtime.syncproxy thread in
          let fm = Rakis.Syncproxy.fm proxy in
          (match Rakis.Iouring_fm.nop fm with
          | Error Abi.Errno.EPERM -> () (* Table 2 fail action *)
          | Error e -> Alcotest.failf "expected EPERM, got %a" Abi.Errno.pp e
          | Ok _ -> Alcotest.fail "forged user_data accepted");
          check_bool "reject recorded" true (Rakis.Iouring_fm.cqe_rejects fm > 0));
  check_bool "attack fired" true (Hostos.Malice.fired m > 0)

let test_iouring_fm_rejects_bogus_res () =
  let fx, _ = attack_fixture [ (Hostos.Malice.Cqe_bogus_res, 1.0) ] in
  run_script fx (fun () ->
      match Rakis.Runtime.new_thread fx.runtime with
      | Error e -> Alcotest.fail e
      | Ok thread ->
          let proxy = Rakis.Runtime.syncproxy thread in
          let fd =
            Result.get_ok (Hostos.Kernel.openf fx.kernel ~create:true "/b")
          in
          let buf = Bytes.create 64 in
          (* Kernel claims to have read 0x7FFFFFF0 bytes of a 64-byte
             request: must be refused as EPERM, not believed. *)
          match Rakis.Syncproxy.read proxy ~fd ~off:0 ~buf ~pos:0 ~len:64 with
          | Error Abi.Errno.EPERM -> ()
          | Error e -> Alcotest.failf "expected EPERM, got %a" Abi.Errno.pp e
          | Ok n -> Alcotest.failf "bogus result accepted as %d" n)

let test_iouring_poll_multi () =
  let fx = boot ~config:small_config () in
  let client = native_client fx in
  run_script fx (fun () ->
      match Rakis.Runtime.new_thread fx.runtime with
      | Error e -> Alcotest.fail e
      | Ok thread ->
          let proxy = Rakis.Runtime.syncproxy thread in
          (* A host UDP socket that becomes readable after a delay. *)
          let sock = Hostos.Kernel.udp_socket fx.kernel in
          ignore
            (Hostos.Kernel.bind fx.kernel sock
               (Hostos.Kernel.server_ip fx.kernel) 7300);
          Sim.Engine.spawn fx.engine (fun () ->
              Sim.Engine.delay (Sim.Cycles.of_us 100.);
              let cfd = client.Libos.Api.udp_socket () in
              ignore
                (client.Libos.Api.sendto cfd (Bytes.of_string "wake")
                   (Hostos.Kernel.server_ip fx.kernel, 7300)));
          match
            Rakis.Syncproxy.poll_multi proxy
              [ (sock, Abi.Uring_abi.pollin) ]
              ~timeout:(Some (Sim.Cycles.of_ms 10.))
          with
          | Ok (Some (fd, mask)) ->
              check "fd" sock fd;
              check_bool "pollin" true (mask land Abi.Uring_abi.pollin <> 0)
          | Ok None -> Alcotest.fail "timed out"
          | Error e -> Alcotest.failf "poll: %a" Abi.Errno.pp e)

let test_iouring_poll_multi_timeout () =
  let fx = boot ~config:small_config () in
  run_script fx (fun () ->
      match Rakis.Runtime.new_thread fx.runtime with
      | Error e -> Alcotest.fail e
      | Ok thread ->
          let proxy = Rakis.Runtime.syncproxy thread in
          let sock = Hostos.Kernel.udp_socket fx.kernel in
          ignore
            (Hostos.Kernel.bind fx.kernel sock
               (Hostos.Kernel.server_ip fx.kernel) 7301);
          match
            Rakis.Syncproxy.poll_multi proxy
              [ (sock, Abi.Uring_abi.pollin) ]
              ~timeout:(Some (Sim.Cycles.of_us 50.))
          with
          | Ok None -> ()
          | Ok (Some _) -> Alcotest.fail "spurious readiness"
          | Error e -> Alcotest.failf "poll: %a" Abi.Errno.pp e)

(* {1 Multi-XSK (the memcached configuration)} *)

let test_multiple_xsks () =
  let config = { small_config with num_xsks = 4 } in
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine ~nic_queues:4 () in
  match Rakis.Runtime.boot kernel ~sgx:true ~config () with
  | Error e -> Alcotest.fail e
  | Ok runtime ->
      let fx = { engine; kernel; runtime } in
      let client = native_client fx in
      let received = ref 0 in
      Sim.Engine.spawn engine (fun () ->
          let sock = Rakis.Runtime.udp_socket runtime in
          ignore (Rakis.Runtime.udp_bind runtime sock 5201);
          let rec loop () =
            match Rakis.Runtime.udp_recvfrom runtime sock ~max:2048 with
            | Ok _ ->
                incr received;
                loop ()
            | Error _ -> ()
          in
          loop ());
      run_script fx (fun () ->
          (* Many source ports so RSS spreads load over all queues. *)
          for i = 1 to 16 do
            let fd = client.Libos.Api.udp_socket () in
            ignore
              (client.Libos.Api.bind fd
                 (Hostos.Kernel.client_ip kernel, 41000 + i));
            for _ = 1 to 5 do
              ignore
                (client.Libos.Api.sendto fd (Bytes.make 128 'm')
                   (Rakis.Config.default.ip, 5201))
            done
          done;
          Sim.Engine.delay (Sim.Cycles.of_ms 2.));
      check "all delivered" 80 !received;
      let active_fms =
        Array.fold_left
          (fun acc fm -> if Rakis.Xsk_fm.rx_packets fm > 0 then acc + 1 else acc)
          0 (Rakis.Runtime.xsk_fms runtime)
      in
      check_bool "load spread across several XSK FMs" true (active_fms >= 2)

let suite =
  [
    ("umem: initially all owned", `Quick, test_umem_initially_owned);
    ("umem: alloc/commit/reclaim cycle", `Quick,
     test_umem_alloc_commit_reclaim_cycle);
    ("umem: exhaustion", `Quick, test_umem_exhaustion);
    ("umem: cancel", `Quick, test_umem_cancel);
    ("umem: out-of-range reclaim rejected", `Quick,
     test_umem_reclaim_out_of_range);
    ("umem: misaligned reclaim rejected", `Quick, test_umem_reclaim_misaligned);
    ("umem: cross-routine reclaim rejected", `Quick,
     test_umem_reclaim_wrong_routine);
    ("umem: double reclaim rejected", `Quick, test_umem_double_reclaim);
    ("umem: unowned reclaim rejected", `Quick, test_umem_never_owned_reclaim);
    ("umem: oversize descriptor rejected", `Quick, test_umem_oversize_len);
    ("umem: conservation under honest traffic", `Quick,
     test_umem_no_duplicate_free_frames);
    ("boot: trusted ring pointers rejected", `Quick,
     test_boot_rejects_trusted_pointers);
    ("boot: negative fd rejected", `Quick, test_boot_rejects_negative_fd);
    ("boot: config validated", `Quick, test_boot_validates_config);
    ("boot: trusted bounce buffer rejected", `Quick,
     test_iouring_fm_rejects_trusted_bounce);
    ("e2e: udp echo through the rings", `Quick, test_rakis_udp_echo_roundtrip);
    ("e2e: zero enclave exits on the data path", `Quick,
     test_rakis_udp_no_exits_on_data_path);
    ("e2e: batched datapath counts match the per-op path", `Quick,
     test_rakis_batched_path_counts_match_single_op);
    ("e2e: monitor issues the wakeup syscalls", `Quick,
     test_rakis_monitor_issues_wakeups);
    ("attack: hostile ring indices survived", `Quick, test_attack_ring_indices);
    ("attack: hostile UMem descriptors survived", `Quick,
     test_attack_umem_descriptors);
    ("attack: corrupted packets survived", `Quick,
     test_attack_corrupt_packets_no_crash);
    ("attack: all attacks at once survived", `Quick,
     test_attack_everything_at_once);
    ("syncproxy: file io", `Quick, test_syncproxy_file_io);
    ("syncproxy: chunked large transfers", `Quick,
     test_syncproxy_chunked_large_write);
    ("iouring fm: forged CQE user_data refused with EPERM", `Quick,
     test_iouring_fm_rejects_forged_cqe);
    ("iouring fm: bogus CQE result refused with EPERM", `Quick,
     test_iouring_fm_rejects_bogus_res);
    ("iouring fm: poll_multi readiness", `Quick, test_iouring_poll_multi);
    ("iouring fm: poll_multi timeout", `Quick, test_iouring_poll_multi_timeout);
    ("multi-xsk: four FMs share the load", `Quick, test_multiple_xsks);
  ]

let test_sqpoll_no_wakeup_syscalls () =
  (* IORING_SETUP_SQPOLL: file IO completes without any MM wakeups (the
     XSK side may still kick the MM at boot, so compare the delta). *)
  let fx = boot ~config:{ small_config with use_sqpoll = true } () in
  let baseline = ref 0 in
  run_script fx (fun () ->
      match Rakis.Runtime.new_thread fx.runtime with
      | Error e -> Alcotest.fail e
      | Ok thread ->
          let proxy = Rakis.Runtime.syncproxy thread in
          let fd =
            Result.get_ok (Hostos.Kernel.openf fx.kernel ~create:true "/sq")
          in
          baseline :=
            Rakis.Monitor.wakeup_syscalls (Rakis.Runtime.monitor fx.runtime);
          let buf = Bytes.make 256 's' in
          for i = 0 to 49 do
            match
              Rakis.Syncproxy.write proxy ~fd ~off:(i * 256) ~buf ~pos:0
                ~len:256
            with
            | Ok 256 -> ()
            | _ -> Alcotest.fail "sqpoll write"
          done);
  check "no MM wakeups for the 50 writes" !baseline
    (Rakis.Monitor.wakeup_syscalls (Rakis.Runtime.monitor fx.runtime))

let suite =
  suite
  @ [
      ("sqpoll: io_uring without MM wakeups", `Quick,
       test_sqpoll_no_wakeup_syscalls);
    ]
