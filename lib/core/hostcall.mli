(** RAKIS's exit-based host syscalls: Gramine's ordinary path, which
    stays underneath RAKIS once it hooks the LibOS syscall table (paper
    §4.2).  Every call pays the in-enclave LibOS dispatch
    ({!Sgx.Params.libos_dispatch_cycles}), one enclave exit, and the
    copy of its payload across the enclave boundary — the very costs
    the FIOKPs exist to avoid.  One instance per booted {!Runtime}.

    The two slow paths below are what the circuit breakers fail over to
    (DESIGN.md §9): each of their calls counts on ["health.slow_calls"]
    and records its cycle cost (exit + copy + kernel work) in the
    ["health.slow_path_cycles"] histogram. *)

type t

val create : obs:Obs.t -> Hostos.Kernel.t -> Sgx.Enclave.t -> t
(** The exit-based path from [enclave] into [kernel], metered on
    [obs]. *)

val call : t -> (Hostos.Kernel.t -> 'a) -> 'a
(** [call t f] runs [f] on the host kernel as one syscall RAKIS does not
    accelerate (socket setup, [open], [close], metadata): LibOS
    dispatch plus one enclave exit, no payload copy, counted on
    ["sgx.host_call_exits"]. *)

val exits : t -> int
(** Enclave exits {!call} has taken (["sgx.host_call_exits"]). *)

(** {1 The io_uring slow path: the five SyncProxy ops} *)

val read :
  t -> fd:int -> off:int -> buf:Bytes.t -> pos:int -> len:int ->
  (int, Abi.Errno.t) result

val write :
  t -> fd:int -> off:int -> buf:Bytes.t -> pos:int -> len:int ->
  (int, Abi.Errno.t) result

val send :
  t -> fd:int -> buf:Bytes.t -> pos:int -> len:int -> (int, Abi.Errno.t) result

val recv :
  t -> fd:int -> buf:Bytes.t -> pos:int -> len:int -> (int, Abi.Errno.t) result

val poll : t -> fd:int -> events:int -> (int, Abi.Errno.t) result
(** Block until [fd] is ready for any of [events] (POLL* bit mask). *)

(** {1 The XSK slow path: host UDP sockets} *)

val udp_socket : t -> int

val udp_bind : t -> int -> port:int -> (unit, Abi.Errno.t) result
(** Bind on the enclave's IP. *)

val udp_sendto :
  t -> int -> Bytes.t -> dst:Packet.Addr.Ip.t * int -> (int, Abi.Errno.t) result

val udp_recvfrom :
  t ->
  int ->
  max:int ->
  (Bytes.t * (Packet.Addr.Ip.t * int), Abi.Errno.t) result

val udp_readable : t -> int -> bool
(** Readiness probe only: no exit and no meter.  The datagram's
    crossing cost lands when {!udp_recvfrom} moves it. *)

val udp_close : t -> int -> unit
