(* Standalone replays of the layers that have no public boundary inside
   a run: their public functions, called in a loop at the sizes the
   workload used, timed on the host clock.  Each replay runs for a
   fixed count of iterations and reports host nanoseconds and minor
   words per unit of work. *)

type cost = { ns : float; words : float }

let measure ~units f =
  f ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  f ();
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  let u = float_of_int units in
  { ns = (t1 -. t0) *. 1e9 /. u; words = (w1 -. w0) /. u }

let make_ring size =
  let region =
    Mem.Region.create ~kind:Untrusted ~name:"replay"
      ~size:(Rings.Layout.footprint ~entry_size:8 ~size + 16)
  in
  let alloc = Mem.Alloc.create region () in
  Rings.Layout.alloc alloc ~entry_size:8 ~size

(* Certified producer and consumer moving [burst] slots per batch. *)
let rings ~burst =
  let burst = max 1 burst in
  let l = make_ring 2048 in
  let prod = Rings.Certified.create l ~role:Rings.Certified.Producer () in
  let cons = Rings.Certified.create l ~role:Rings.Certified.Consumer () in
  let region = l.Rings.Layout.region in
  let iters = 400_000 / burst in
  measure ~units:(iters * burst) (fun () ->
      for _ = 1 to iters do
        ignore
          (Rings.Certified.produce_batch prod ~count:burst
             ~write:(fun ~slot_off k ->
               Mem.Region.set_u64 region slot_off (Int64.of_int k)));
        ignore
          (Rings.Certified.consume_batch cons ~max:burst
             ~read:(fun ~slot_off _ -> ignore (Mem.Region.get_u64 region slot_off)))
      done)

(* One UMem frame's round trip: alloc, commit to RX, reclaim. *)
let umem () =
  let u = Rakis.Umem.create ~size:(2048 * 2048) ~frame_size:2048 () in
  let iters = 400_000 in
  measure ~units:iters (fun () ->
      for _ = 1 to iters do
        match Rakis.Umem.alloc u with
        | None -> ()
        | Some off ->
            Rakis.Umem.commit u off Rakis.Umem.Rx;
            ignore (Rakis.Umem.reclaim u Rakis.Umem.Rx ~offset:off ~len:64 ())
      done)

let server_ip = Packet.Addr.Ip.of_repr "10.0.0.1"

let client_ip = Packet.Addr.Ip.of_repr "10.0.0.2"

let server_mac = Packet.Addr.Mac.of_repr "02:00:00:00:00:01"

let client_mac = Packet.Addr.Mac.of_repr "02:00:00:00:00:02"

let udp_frame ~payload =
  Packet.Frame.build_udp
    {
      Packet.Frame.src_mac = client_mac;
      dst_mac = server_mac;
      src_ip = client_ip;
      dst_ip = server_ip;
      src_port = 40000;
      dst_port = 9;
    }
    (Bytes.make payload 'p')

(* The in-enclave stack's receive path for one valid UDP frame that a
   bound socket takes, drained as it goes. *)
let stack_input ~payload =
  let engine = Sim.Engine.create () in
  let st = Netstack.Stack.create engine ~mac:server_mac ~ip:server_ip () in
  let sock =
    match Netstack.Stack.bind st ~port:9 with
    | Ok s -> s
    | Error `Port_in_use -> failwith "replay bind"
  in
  let frame = udp_frame ~payload in
  let iters = 100_000 in
  measure ~units:iters (fun () ->
      for _ = 1 to iters do
        Netstack.Stack.input st frame;
        if Netstack.Udp_socket.readable sock then
          ignore (Netstack.Udp_socket.recvfrom sock ~max:65536)
      done)

(* Internet checksum over 1 KiB. *)
let checksum () =
  let b = Bytes.make 1024 'c' in
  let iters = 200_000 in
  measure ~units:iters (fun () ->
      for _ = 1 to iters do
        ignore (Packet.Checksum.compute b 0 1024)
      done)

(* Build and fully dissect one Ethernet/IPv4/UDP frame. *)
let codec ~payload =
  let body = Bytes.make payload 'p' in
  let info =
    {
      Packet.Frame.src_mac = client_mac;
      dst_mac = server_mac;
      src_ip = client_ip;
      dst_ip = server_ip;
      src_port = 40000;
      dst_port = 9;
    }
  in
  let iters = 100_000 in
  measure ~units:iters (fun () ->
      for _ = 1 to iters do
        ignore (Packet.Frame.dissect_udp (Packet.Frame.build_udp info body))
      done)

(* A process switch: one simulated process delaying itself, so every
   iteration suspends and resumes it through the engine. *)
let engine_switch () =
  let iters = 200_000 in
  measure ~units:iters (fun () ->
      let e = Sim.Engine.create () in
      Sim.Engine.spawn e (fun () ->
          for _ = 1 to iters do
            Sim.Engine.delay 1L
          done);
      Sim.Engine.run e)
