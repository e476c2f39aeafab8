type result = {
  env : string;
  zerocopy : bool;
  chunk_size : int;
  bytes_sent : int;
  bytes_received : int;
  duration : Sim.Engine.time;
  goodput_gbps : float;
  cycles_per_byte : float;
  zc_sends : int;
  zc_fallbacks : int;
  zc_notifs : int;
  zc_leaks : int;
}

let port = 5202

(* Native receiver: one accepted stream, drained to EOF. *)
let receiver api ~kernel ~received ~stop () =
  let l = api.Libos.Api.tcp_socket () in
  (match api.Libos.Api.bind l (Hostos.Kernel.client_ip kernel, port) with
  | Ok () -> ()
  | Error e ->
      failwith (Format.asprintf "iperf-tcp receiver bind: %a" Abi.Errno.pp e));
  (match api.Libos.Api.listen l with
  | Ok () -> ()
  | Error e ->
      failwith (Format.asprintf "iperf-tcp receiver listen: %a" Abi.Errno.pp e));
  match api.Libos.Api.accept l with
  | Error _ -> stop ()
  | Ok c ->
      let buf = Bytes.create 65536 in
      let rec drain () =
        match api.Libos.Api.recv c buf 0 (Bytes.length buf) with
        | Ok 0 | Error _ -> stop ()
        | Ok n ->
            received := !received + n;
            drain ()
      in
      drain ()

(* The enclave-side sender: one connection, [bytes] streamed in
   [chunk_size] writes through [Libos.Api.send] — the path that
   dispatches to SEND_ZC from registered frames under
   [config.zerocopy] and to the bounce-buffer copy path otherwise. *)
let sender api ~kernel ~chunk_size ~bytes ~out () =
  (* Let the receiver finish socket+bind+listen before connecting. *)
  Sim.Engine.delay (Sim.Cycles.of_us 50.);
  let fd = api.Libos.Api.tcp_socket () in
  (match api.Libos.Api.connect fd (Hostos.Kernel.client_ip kernel, port) with
  | Ok () -> ()
  | Error e ->
      failwith (Format.asprintf "iperf-tcp connect: %a" Abi.Errno.pp e));
  let chunk = Bytes.make chunk_size 'z' in
  let start = Libos.Api.now api in
  let rec loop sent =
    if sent >= bytes then sent
    else
      let want = min chunk_size (bytes - sent) in
      match api.Libos.Api.send fd chunk 0 want with
      | Ok n when n > 0 -> loop (sent + n)
      | Ok _ | Error _ -> sent
  in
  let sent = loop 0 in
  let finish = Libos.Api.now api in
  (* The last SEND_ZC's notif trails its completion by the softirq
     delay and is only reaped while awaiting a later op: give it time
     to post, then reap it with a cheap poll so the final frame is not
     misread as a leak.  Timed outside the measured window — teardown,
     not datapath. *)
  Sim.Engine.delay (Sim.Cycles.of_ms 1.);
  ignore (api.Libos.Api.poll [ (fd, [ `Out ]) ] ~timeout:(Some (Sim.Cycles.of_us 10.)));
  ignore (api.Libos.Api.close fd);
  out := Some (sent, Int64.sub finish start)

let run ?(chunk_size = 16 * 1024) (h : Harness.t) ~bytes =
  let received = ref 0 and out = ref None in
  let live = ref 2 in
  let fin () =
    decr live;
    if !live = 0 then Harness.stop h
  in
  Sim.Engine.spawn h.engine ~name:"iperf-tcp-receiver"
    (receiver h.peer ~kernel:h.kernel ~received ~stop:fin);
  Sim.Engine.spawn h.engine ~name:"iperf-tcp-sender" (fun () ->
      sender (Harness.api h) ~kernel:h.kernel ~chunk_size ~bytes ~out ();
      fin ());
  Harness.run h ~until:(Sim.Cycles.of_sec 60.);
  let bytes_sent, duration = Option.value !out ~default:(0, 0L) in
  let zerocopy, zc_sends, zc_fallbacks, zc_notifs, zc_leaks =
    match Libos.Env.runtime h.env with
    | Some rt when (Rakis.Runtime.config rt).Rakis.Config.zerocopy ->
        let tot = Rakis.Runtime.totals rt in
        (true, tot.zc_sends, tot.zc_fallbacks, tot.zc_notifs, tot.zc_leaks)
    | _ -> (false, 0, 0, 0, 0)
  in
  {
    env = (Harness.api h).Libos.Api.name;
    zerocopy;
    chunk_size;
    bytes_sent;
    bytes_received = !received;
    duration;
    goodput_gbps =
      (if Int64.compare duration 0L <= 0 then 0.
       else
         float_of_int bytes_sent *. 8. /. Sim.Cycles.to_sec duration /. 1e9);
    cycles_per_byte =
      (if bytes_sent = 0 then 0.
       else Int64.to_float duration /. float_of_int bytes_sent);
    zc_sends;
    zc_fallbacks;
    zc_notifs;
    zc_leaks;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "%-14s %s chunk=%5dB sent=%dB rcvd=%dB goodput=%.2f Gbps %.3f cycles/B" r.env
    (if r.zerocopy then "zc  " else "copy")
    r.chunk_size r.bytes_sent r.bytes_received r.goodput_gbps r.cycles_per_byte;
  if r.zerocopy then
    Format.fprintf ppf " (zc sends=%d fallbacks=%d notifs=%d leaks=%d)"
      r.zc_sends r.zc_fallbacks r.zc_notifs r.zc_leaks
