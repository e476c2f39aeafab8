type result = {
  env : string;
  datagrams : int;
  echoed : int;
  accounted : int;
  unaccounted : int;
  flows : int;
  payload_size : int;
  duration : Sim.Engine.time;
  round_trips_per_sec : float;
  rtt_p50 : int;
  rtt_p99 : int;
  rdp : bool;
  rdp_retransmits : int;
  rdp_gave_up : int;
  shards : Shards.report option;
}

let port = 7

(* A flow that never hears its echo must not wedge until the harness
   horizon: the client waits this long per round trip, then moves on
   and lets the accounting decide whether the datagram was shed
   (server-side counters cover it) or silently lost (a bug).  Generous
   enough that breaker failovers and fault stalls — latency, not loss —
   never get misread as drops. *)
let reply_timeout = Sim.Cycles.of_ms 2.

let server api () =
  let fd = api.Libos.Api.udp_socket () in
  (match api.Libos.Api.bind fd (Packet.Addr.Ip.of_repr "10.0.0.1", port) with
  | Ok () -> ()
  | Error e -> failwith (Format.asprintf "echo server bind: %a" Abi.Errno.pp e));
  let rec loop () =
    match api.Libos.Api.recvfrom fd 65536 with
    | Ok (payload, src) ->
        ignore (api.Libos.Api.sendto fd payload src);
        loop ()
    | Error _ -> ()
  in
  loop ()

(* The RDP variant of the echo server: same echo semantics, but every
   datagram rides {!Netstack.Rdp} — retransmitted replies, deduplicated
   requests.  [links] collects the endpoint so the run can fold its
   retransmit/give-up counters into the result after the harness
   stops. *)
let server_rdp api ~links () =
  let link = Rdp_link.create ~name:"rdp.server" api in
  links := link :: !links;
  (match Rdp_link.bind link (Packet.Addr.Ip.of_repr "10.0.0.1", port) with
  | Ok () -> ()
  | Error e -> failwith (Format.asprintf "echo server bind: %a" Abi.Errno.pp e));
  let rec loop () =
    match Rdp_link.recv link with
    | Some (payload, src) ->
        Rdp_link.send link payload src;
        loop ()
    | None -> ()
  in
  loop ()

(* Round trips are sequence-tagged (first 8 payload bytes) so a bounded
   wait stays sound: an echo arriving after its round trip was given up
   on is drained as stale instead of being credited to the next one. *)
let tag_payload payload seq =
  Bytes.blit_string (Printf.sprintf "%08d" (seq mod 100_000_000)) 0 payload 0 8

let tag_of payload =
  if Bytes.length payload >= 8 then
    int_of_string_opt (Bytes.sub_string payload 0 8)
  else None

(* Closed-loop native client: each datagram waits (bounded) for its
   echo, so the count measures round trips, not offered load.  [src]
   pins the source port (multi-flow runs need distinct, deterministic
   4-tuples so RSS spreads the flows over the shards); the single-flow
   default keeps the historical ephemeral-port behaviour. *)
let client api ~datagrams ~payload_size ~src ~echoed ~first ~last ~rtts ~fin ()
    =
  (* Let the server finish socket+bind before offering load. *)
  Sim.Engine.delay (Sim.Cycles.of_us 50.);
  let fd = api.Libos.Api.udp_socket () in
  (match src with
  | None -> ()
  | Some addr -> (
      match api.Libos.Api.bind fd addr with
      | Ok () -> ()
      | Error e ->
          failwith (Format.asprintf "echo client bind: %a" Abi.Errno.pp e)));
  let dst = (Packet.Addr.Ip.of_repr "10.0.0.1", port) in
  let payload = Bytes.make (max 8 payload_size) 'e' in
  if !first = 0L then first := Libos.Api.now api;
  for seq = 0 to datagrams - 1 do
    tag_payload payload seq;
    let sent_at = Libos.Api.now api in
    let deadline = Int64.add sent_at reply_timeout in
    ignore (api.Libos.Api.sendto fd payload dst);
    let rec await () =
      let left = Int64.sub deadline (Libos.Api.now api) in
      if Int64.compare left 0L > 0 then
        match api.Libos.Api.poll [ (fd, [ `In ]) ] ~timeout:(Some left) with
        | Ok ((_, _) :: _) -> (
            match api.Libos.Api.recvfrom fd 65536 with
            | Ok (reply, _) when tag_of reply = Some seq ->
                incr echoed;
                last := Int64.max !last (Libos.Api.now api);
                Obs.Metrics.observe rtts
                  (Int64.to_int (Int64.sub !last sent_at))
            | Ok _ -> await () (* stale echo of a given-up round trip *)
            | Error _ -> await ())
        | Ok [] | Error _ -> ()
    in
    await ()
  done;
  fin ()

(* The RDP client: each round trip sends over the reliable-datagram
   link and waits (bounded) for the tagged echo; the link retransmits
   on its own clock inside [recv].  A final [flush] turns any unacked
   datagrams into counted give-ups before the flow finishes. *)
let client_rdp api ~datagrams ~payload_size ~src ~links ~echoed ~first ~last
    ~rtts ~fin () =
  Sim.Engine.delay (Sim.Cycles.of_us 50.);
  let link = Rdp_link.create ~name:"rdp.client" api in
  links := link :: !links;
  (match src with
  | None -> ()
  | Some addr -> (
      match Rdp_link.bind link addr with
      | Ok () -> ()
      | Error e ->
          failwith (Format.asprintf "echo client bind: %a" Abi.Errno.pp e)));
  let dst = (Packet.Addr.Ip.of_repr "10.0.0.1", port) in
  let payload = Bytes.make (max 8 payload_size) 'e' in
  if !first = 0L then first := Libos.Api.now api;
  for seq = 0 to datagrams - 1 do
    tag_payload payload seq;
    let sent_at = Libos.Api.now api in
    let deadline = Int64.add sent_at reply_timeout in
    Rdp_link.send link (Bytes.copy payload) dst;
    let rec await () =
      let left = Int64.sub deadline (Libos.Api.now api) in
      if Int64.compare left 0L > 0 then
        match Rdp_link.recv ~timeout:left link with
        | Some (reply, _) when tag_of reply = Some seq ->
            incr echoed;
            last := Int64.max !last (Libos.Api.now api);
            Obs.Metrics.observe rtts (Int64.to_int (Int64.sub !last sent_at))
        | Some _ -> await () (* stale echo of a given-up round trip *)
        | None -> ()
    in
    await ()
  done;
  Rdp_link.flush ~timeout:reply_timeout link;
  fin ()

let run ?(flows = 1) ?(rdp = false) (h : Harness.t) ~datagrams ~payload_size =
  let echoed = ref 0 and first = ref 0L and last = ref 0L in
  let rtts = Obs.Metrics.histogram (Obs.Metrics.create ()) "udp_echo.rtt" in
  let links = ref [] in
  Sim.Engine.spawn h.engine ~name:"echo-server"
    (if rdp then server_rdp (Harness.api h) ~links else server (Harness.api h));
  let live = ref flows in
  let fin () =
    decr live;
    if !live = 0 then Harness.stop h
  in
  let spawn_client ~name ~datagrams ~src =
    Sim.Engine.spawn h.engine ~name
      (if rdp then
         client_rdp h.peer ~datagrams ~payload_size ~src ~links ~echoed ~first
           ~last ~rtts ~fin
       else
         client h.peer ~datagrams ~payload_size ~src ~echoed ~first ~last ~rtts
           ~fin)
  in
  if flows <= 1 then spawn_client ~name:"echo-client" ~datagrams ~src:None
  else begin
    let ports =
      Array.of_list
        (Shards.spread_ports h ~n:flows
           ~dst:(Packet.Addr.Ip.of_repr "10.0.0.1", port)
           ~base:40000)
    in
    for i = 0 to flows - 1 do
      let n = (datagrams / flows) + if i < datagrams mod flows then 1 else 0 in
      spawn_client
        ~name:(Printf.sprintf "echo-client%d" i)
        ~datagrams:n
        ~src:(Some (Hostos.Kernel.client_ip h.kernel, ports.(i)))
    done
  end;
  Harness.run h ~until:(Sim.Cycles.of_sec 30.);
  let duration = if !echoed = 0 then 0L else Int64.sub !last !first in
  let shards = Shards.capture h in
  Shards.check_exn ~what:"udp_echo" shards;
  let fold f = List.fold_left (fun acc l -> acc + f (Rdp_link.rdp l)) 0 !links in
  let rdp_gave_up = fold Netstack.Rdp.gave_up in
  {
    env = (Harness.api h).Libos.Api.name;
    datagrams;
    echoed = !echoed;
    accounted = Harness.accounted h;
    unaccounted =
      Harness.unaccounted h ~missing:(datagrams - !echoed - rdp_gave_up);
    flows;
    payload_size;
    duration;
    round_trips_per_sec =
      (if Int64.compare duration 0L <= 0 then 0.
       else float_of_int !echoed /. Sim.Cycles.to_sec duration);
    rtt_p50 = Obs.Metrics.percentile rtts 50.;
    rtt_p99 = Obs.Metrics.percentile rtts 99.;
    rdp;
    rdp_retransmits = fold Netstack.Rdp.retransmits;
    rdp_gave_up;
    shards;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "%-14s size=%4dB echoed=%d/%d in %a (%.0f round trips/s simulated, rtt \
     p50<=%d p99<=%d cycles)"
    r.env r.payload_size r.echoed r.datagrams Sim.Cycles.pp_duration r.duration
    r.round_trips_per_sec r.rtt_p50 r.rtt_p99;
  if r.accounted > 0 then
    Format.fprintf ppf " [%d accounted losses]" r.accounted;
  if r.unaccounted > 0 then
    Format.fprintf ppf " [%d silently lost]" r.unaccounted;
  if r.rdp then
    Format.fprintf ppf " [rdp: %d retransmits, %d give-ups]" r.rdp_retransmits
      r.rdp_gave_up;
  match r.shards with
  | Some s when s.Shards.queues > 1 -> Format.fprintf ppf "@,%a" Shards.pp s
  | _ -> ()
