module K = Hostos.Kernel

type t = {
  kernel : K.t;
  enclave : Sgx.Enclave.t;
  engine : Sim.Engine.t;
  host_call_exits : Obs.Metrics.counter;
  slow_calls : Obs.Metrics.counter;
  slow_cycles : Obs.Metrics.histogram;
}

let create ~obs kernel enclave =
  let m = Obs.metrics obs in
  {
    kernel;
    enclave;
    engine = K.engine kernel;
    host_call_exits = Obs.Metrics.counter m "sgx.host_call_exits";
    slow_calls = Obs.Metrics.counter m "health.slow_calls";
    slow_cycles = Obs.Metrics.histogram m "health.slow_path_cycles";
  }

let dispatch t =
  Sgx.Enclave.charge t.enclave Sgx.Params.libos_dispatch_cycles;
  Sgx.Enclave.ocall t.enclave

let copy t len = Sgx.Enclave.charge_copy t.enclave ~crossing:true len

let call t f =
  dispatch t;
  Obs.Metrics.incr t.host_call_exits;
  f t.kernel

let exits t = Obs.Metrics.value t.host_call_exits

(* One slow-path op: dispatch, exit and [f]'s kernel work and copies,
   counted and timed on the degraded-traffic meter. *)
let slow t f =
  let start = Sim.Engine.now t.engine in
  dispatch t;
  let r = f t.kernel in
  Obs.Metrics.incr t.slow_calls;
  Obs.Metrics.observe t.slow_cycles
    (Int64.to_int (Int64.sub (Sim.Engine.now t.engine) start));
  r

let copied_in t = function
  | Ok n ->
      copy t n;
      Ok n
  | Error e -> Error e

let read t ~fd ~off ~buf ~pos ~len =
  slow t (fun k -> copied_in t (K.pread k fd ~off buf pos len))

let write t ~fd ~off ~buf ~pos ~len =
  slow t (fun k ->
      copy t len;
      K.pwrite k fd ~off buf pos len)

let send t ~fd ~buf ~pos ~len =
  slow t (fun k ->
      copy t len;
      K.send k fd buf pos len)

let recv t ~fd ~buf ~pos ~len =
  slow t (fun k -> copied_in t (K.recv k fd buf pos len))

let kevs_of_mask mask =
  (if mask land Abi.Uring_abi.pollin <> 0 then [ K.Pollin ] else [])
  @ if mask land Abi.Uring_abi.pollout <> 0 then [ K.Pollout ] else []

let mask_of_kevs evs =
  List.fold_left
    (fun acc ev ->
      acc
      lor
      match ev with
      | K.Pollin -> Abi.Uring_abi.pollin
      | K.Pollout -> Abi.Uring_abi.pollout)
    0 evs

let poll t ~fd ~events =
  slow t (fun k ->
      match K.poll k [ (fd, kevs_of_mask events) ] ~timeout:None with
      | Ok [ (_, revs) ] -> Ok (mask_of_kevs revs)
      | Ok _ -> Ok 0
      | Error e -> Error e)

let udp_socket t = slow t K.udp_socket

let udp_bind t fd ~port = slow t (fun k -> K.bind k fd (K.server_ip k) port)

let udp_sendto t fd payload ~dst =
  slow t (fun k ->
      copy t (Bytes.length payload);
      K.sendto k fd payload ~dst)

let udp_recvfrom t fd ~max =
  slow t (fun k ->
      match K.recvfrom k fd ~max with
      | Ok (payload, src) ->
          copy t (Bytes.length payload);
          Ok (payload, src)
      | Error e -> Error e)

let udp_readable t fd = K.fd_ready t.kernel fd K.Pollin

let udp_close t fd = slow t (fun k -> ignore (K.close k fd))
