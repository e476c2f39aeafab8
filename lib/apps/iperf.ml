type result = {
  env : string;
  packet_size : int;
  sent_packets : int;
  received_packets : int;
  received_bytes : int;
  duration : Sim.Engine.time;
  goodput_gbps : float;
  loss : float;
  gap_p50 : int;  (** server-side inter-arrival gap percentiles, cycles *)
  gap_p99 : int;
  shards : Shards.report option;
  ended_at_horizon : bool;
}

let port = 5201

(* How long the client waits for its FIN to reach the server before it
   sends another.  A FIN that is not dropped queues behind the data
   backlog; the slowest server measured (gramine-sgx) sees it ~46 ms
   after it was sent, so a FIN still in flight is never repeated. *)
let fin_retry = Sim.Cycles.of_ms 100.

let fin_marker = 'F'

let data_marker = 'D'

(* Offered inter-packet gap for a target of the full link rate. *)
let gap_for size =
  let frame = size + Packet.Frame.frame_overhead in
  Int64.of_float (float_of_int frame *. !Sgx.Params.live_wire_cycles_per_byte)

let server api ~stats ~gaps ~stop () =
  let received_packets, received_bytes, first_rx, last_rx, fin_seen, done_ =
    stats
  in
  let fd = api.Libos.Api.udp_socket () in
  (match api.Libos.Api.bind fd (Packet.Addr.Ip.of_repr "10.0.0.1", port) with
  | Ok () -> ()
  | Error e -> failwith (Format.asprintf "iperf server bind: %a" Abi.Errno.pp e));
  let rec loop () =
    match api.Libos.Api.recvfrom fd 65536 with
    | Error e ->
        failwith (Format.asprintf "iperf server recv: %a" Abi.Errno.pp e)
    | Ok (payload, _) ->
        if Bytes.length payload > 0 && Bytes.get payload 0 = fin_marker then begin
          fin_seen := true;
          (* With RSS the FIN flow can hash to an idle queue and overtake
             data still backlogged on another queue, so drain to
             quiescence: keep receiving until nothing arrives for a
             grace window. *)
          let grace = Sim.Cycles.of_us 200. in
          let rec drain () =
            match api.Libos.Api.poll [ (fd, [ `In ]) ] ~timeout:(Some grace) with
            | Ok ((_ :: _) as _ready) -> (
                match api.Libos.Api.recvfrom fd 65536 with
                | Ok (payload, _)
                  when Bytes.length payload > 0
                       && Bytes.get payload 0 = data_marker ->
                    count payload;
                    drain ()
                | Ok _ -> drain ()
                | Error _ -> ())
            | Ok [] | Error _ -> ()
          in
          drain ();
          done_ := true;
          stop ()
        end
        else begin
          count payload;
          loop ()
        end
  and count payload =
    let now = Libos.Api.now api in
    if !first_rx = None then first_rx := Some now
    else Obs.Metrics.observe gaps (Int64.to_int (Int64.sub now !last_rx));
    last_rx := now;
    incr received_packets;
    received_bytes := !received_bytes + Bytes.length payload
  in
  loop ()

(* One sending stream.  iperf3's offered load is modelled with several
   parallel streams (like -P): a single simulated sender thread cannot
   exceed its own syscall rate, while the paper's client offers the
   full 25 Gbps. *)
let stream api ~packet_size ~packets ~src ~sent ~finished () =
  (* Let the server finish socket+bind (expensive under a LibOS) before
     offering load — iperf3 servers likewise start first. *)
  Sim.Engine.delay (Sim.Cycles.of_us 50.);
  let fd = api.Libos.Api.udp_socket () in
  (match src with
  | None -> ()
  | Some addr -> (
      match api.Libos.Api.bind fd addr with
      | Ok () -> ()
      | Error e ->
          failwith (Format.asprintf "iperf stream bind: %a" Abi.Errno.pp e)));
  let dst = (Packet.Addr.Ip.of_repr "10.0.0.1", port) in
  let payload = Bytes.make packet_size '\000' in
  Bytes.set payload 0 data_marker;
  let gap = gap_for packet_size in
  let start = Libos.Api.now api in
  let rec send i next_slot =
    if i < packets then begin
      (match api.Libos.Api.sendto fd payload dst with
      | Ok _ -> incr sent
      | Error _ -> ());
      let now = Libos.Api.now api in
      let next_slot = Int64.add next_slot gap in
      if Int64.compare next_slot now > 0 then
        Sim.Engine.delay (Int64.sub next_slot now);
      send (i + 1) next_slot
    end
  in
  send 0 start;
  finished ()

let client api ~packet_size ~packets ~streams ~srcs ~sent ~fin_seen () =
  let live = ref streams in
  let per_stream = max 1 (packets / streams) in
  let finished () =
    decr live;
    if !live = 0 then begin
      (* FIN markers, redundantly, since UDP may drop them. *)
      let fd = api.Libos.Api.udp_socket () in
      let dst = (Packet.Addr.Ip.of_repr "10.0.0.1", port) in
      let fin = Bytes.make (max 4 (min packet_size 64)) '\000' in
      Bytes.set fin 0 fin_marker;
      for _ = 1 to 8 do
        ignore (api.Libos.Api.sendto fd fin dst);
        Sim.Engine.delay (Sim.Cycles.of_us 20.)
      done;
      (* The server stops the run once a FIN reaches it.  A full queue
         on the path can drop the whole round, so until the server has
         seen one, repeat a FIN every [fin_retry] — the reliable
         test-end message iperf3 sends over its control connection. *)
      let rec retry () =
        Sim.Engine.delay fin_retry;
        if not !fin_seen then begin
          ignore (api.Libos.Api.sendto fd fin dst);
          retry ()
        end
      in
      retry ()
    end
  in
  for s = 1 to streams - 1 do
    let src = srcs.(s) in
    api.Libos.Api.spawn
      ~name:(Printf.sprintf "iperf-stream%d" s)
      (fun api ->
        stream api ~packet_size ~packets:per_stream ~src ~sent ~finished ())
  done;
  stream api ~packet_size ~packets:per_stream ~src:srcs.(0) ~sent ~finished ()

let run ?(streams = 4) ?src_ports (h : Harness.t) ~packet_size ~packets =
  let srcs =
    match src_ports with
    | None -> Array.make (max 1 streams) None
    | Some ports ->
        let ip = Hostos.Kernel.client_ip h.kernel in
        Array.init (max 1 streams) (fun i ->
            match List.nth_opt ports i with
            | Some p -> Some (ip, p)
            | None -> None)
  in
  let received_packets = ref 0
  and received_bytes = ref 0
  and first_rx = ref None
  and last_rx = ref 0L
  and fin_seen = ref false
  and done_ = ref false
  and sent = ref 0 in
  let stats =
    (received_packets, received_bytes, first_rx, last_rx, fin_seen, done_)
  in
  let gaps = Obs.Metrics.histogram (Obs.Metrics.create ()) "iperf.rx_gap" in
  Sim.Engine.spawn h.engine ~name:"iperf-server"
    (server (Harness.api h) ~stats ~gaps ~stop:(fun () -> Harness.stop h));
  Sim.Engine.spawn h.engine ~name:"iperf-client"
    (client h.peer ~packet_size ~packets ~streams ~srcs ~sent ~fin_seen);
  Harness.run h ~until:(Sim.Cycles.of_sec 30.);
  let duration =
    match !first_rx with
    | None -> 0L
    | Some f -> Int64.sub !last_rx f
  in
  let goodput_gbps =
    if Int64.compare duration 0L <= 0 then 0.
    else
      float_of_int !received_bytes
      *. 8.
      /. Sim.Cycles.to_sec duration
      /. 1e9
  in
  let shards = Shards.capture h in
  Shards.check_exn ~what:"iperf" shards;
  {
    env = (Harness.api h).Libos.Api.name;
    packet_size;
    sent_packets = !sent;
    received_packets = !received_packets;
    received_bytes = !received_bytes;
    duration;
    goodput_gbps;
    loss =
      (if !sent = 0 then 0.
       else 1. -. (float_of_int !received_packets /. float_of_int !sent));
    gap_p50 = Obs.Metrics.percentile gaps 50.;
    gap_p99 = Obs.Metrics.percentile gaps 99.;
    shards;
    ended_at_horizon = not !done_;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "%-14s size=%4dB sent=%d rcvd=%d goodput=%.2f Gbps loss=%.1f%%" r.env
    r.packet_size r.sent_packets r.received_packets r.goodput_gbps
    (100. *. r.loss);
  match r.shards with
  | Some s when s.Shards.queues > 1 -> Format.fprintf ppf "@,%a" Shards.pp s
  | _ -> ()
