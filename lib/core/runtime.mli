(** The RAKIS runtime: boots the whole system and exposes the syscall
    surface the LibOS reroutes to it (paper §3 architecture, §4.2 API).

    Boot sequence (mirroring the paper):
    + validate the user configuration (trusted ground truth);
    + allocate the shared untrusted memory arena;
    + for each of the [config.num_queues] datapath {e shards}: build its
      in-enclave UDP/IP stack instance and Monitor Module, run the XSK
      initialization syscalls outside the enclave (one OCALL covering
      them) and let each {!Xsk_fm} validate the returned pointers;
    + attach the XDP program to every NIC queue — redirect UDP destined
      to enclave-owned ports, and ARP aimed at the enclave IP, to the
      XSK of the shard serving that queue; PASS everything else to the
      host stack;
    + start the per-XSK FM threads and each shard's Monitor Module
      thread outside the enclave.

    {b Sharding (DESIGN.md §10).}  With [config.num_queues = S > 1] the
    datapath is S independent shards, each owning a slice of the NIC's
    queues (queue [q] -> shard [q mod S]): its own XSK FMs + UMems, its
    own stack instance, its own MM and its own XSK circuit breaker.  The
    NIC's deterministic symmetric RSS hash pins every UDP flow to one
    queue in both directions, so shards share no fast-path state and
    scale near-linearly; transmit picks the shard with the same hash, so
    TX affinity matches RX.  Every shard stack is bound to every owned
    port (mirrored binds), and {!udp_recvfrom} multiplexes the per-shard
    sockets.  Faults or attacks pinned to shard [k]
    ({!Hostos.Faults.arm}[ ~shard]) can only degrade shard [k]'s flows:
    other shards' breakers stay closed and their traffic is untouched.
    With the default [num_queues = 1] everything below collapses to the
    single-queue behaviour, names and repro tokens of PR 5.

    Per-thread io_uring FMs are created on demand via {!new_thread},
    matching the paper's one-FM-per-user-thread design; threads are
    assigned to shards round-robin for Monitor coverage and fault
    attribution. *)

type t
(** One booted RAKIS machine: enclave, shared arena, per-shard XSK FMs /
    stacks / Monitor Modules, and per-thread io_uring FMs. *)

type udp_sock
(** An in-enclave UDP socket handle served by the XSK fast path.  Bound
    on every shard's stack (same port), so a flow's datagrams surface on
    the shard its RSS hash selects. *)

type thread
(** A user thread's io_uring context: its FM plus its SyncProxy. *)

type slow_udp = {
  su_socket : unit -> int;
  su_bind : int -> port:int -> (unit, Abi.Errno.t) result;
  su_sendto :
    int -> Bytes.t -> dst:Packet.Addr.Ip.t * int -> (int, Abi.Errno.t) result;
  su_recvfrom :
    int -> max:int -> (Bytes.t * (Packet.Addr.Ip.t * int), Abi.Errno.t) result;
  su_readable : int -> bool;
  su_close : int -> unit;
}
(** The exit-based UDP slow path: plain host-kernel sockets driven via
    OCALLs, implemented by {!Libos.Hostapi.slow_udp}.  Used only while
    an XSK breaker is open (DESIGN.md §9): when a shard's breaker trips,
    each bound fast-path socket gets a same-port fallback host socket,
    that shard's XDP queues switch from [Redirect] to [Pass] for owned
    ports (so inbound datagrams land on the fallback socket), and the
    shard's sends go out via [su_sendto] — paying the modeled SGX exit +
    copy costs.  The host stack is not sharded: one fallback socket per
    port serves every shard. *)

val boot :
  Hostos.Kernel.t -> sgx:bool -> ?config:Config.t -> unit -> (t, string) result
(** Run the boot sequence above against [kernel].  [sgx:false] skips
    enclave-transition cost accounting (the "native" baseline in the
    benchmarks); [config] defaults to {!Config.default}.  Errors are
    human-readable descriptions of the failed boot stage — including
    [config.num_queues] exceeding the NIC's queue count. *)

val enclave : t -> Sgx.Enclave.t
(** The enclave whose transition/charging model all FMs share. *)

val kernel : t -> Hostos.Kernel.t
(** The (untrusted) host kernel this runtime was booted against. *)

val stack : t -> Netstack.Stack.t
(** Shard 0's in-enclave UDP/IP network stack (the only one when
    [num_queues = 1]). *)

val monitor : t -> Monitor.t
(** Shard 0's Monitor Module thread. *)

val config : t -> Config.t
(** The validated configuration the runtime booted with. *)

val obs : t -> Obs.t
(** The runtime-wide observability handle: one metrics registry and one
    trace ring shared by every shard's stack, Monitor Module and
    FastPath Modules, with instruments named per instance.  Single-queue
    names are the historical ["xsk0.*"], ["mm.*"], ["stack.*"]; with
    [S > 1] shard [k]'s instances register as ["xsk.<k>.<i>.*"],
    ["mm.<k>.*"], ["stack.<k>.*"] and ["health.xsk.<k>.*"], so per-shard
    counters never silently share cells.  The trace clock is the
    simulation engine's cycle counter. *)

val xsk_fms : t -> Xsk_fm.t array
(** Every XSK FastPath Module in the system, shard-major ([num_queues *
    num_xsks] total; shard 0's FMs first). *)

val owns_port : t -> int -> bool
(** Is this UDP port currently served by RAKIS (bound in the enclave)? *)

(** {1 Shards} *)

val shard_count : t -> int
(** Number of datapath shards ([config.num_queues]). *)

val shard_breaker : t -> int -> Health.t
(** Shard [k]'s XSK circuit breaker (["health.xsk.<k>.*"] when sharded,
    ["health.xsk.*"] for the single shard). *)

val shard_monitor : t -> int -> Monitor.t
(** Shard [k]'s Monitor Module. *)

val shard_fms : t -> int -> Xsk_fm.t array
(** Shard [k]'s XSK FastPath Modules. *)

val shard_xsks : t -> int -> Hostos.Xdp.xsk array
(** Shard [k]'s host-side XSK handles, for edge-drop forensics
    ({!Hostos.Xdp.rx_drop_reasons}) — which layer refused, and why. *)

val shard_rx_delivered : t -> int -> int
(** Datagrams shard [k]'s stack delivered to sockets — the per-shard RX
    activity counter apps use to detect a silently idle shard. *)

val shard_tx_frames : t -> int -> int
(** Frames submitted through shard [k]'s transmit hook. *)

val shard_stack : t -> int -> Netstack.Stack.t
(** Shard [k]'s in-enclave UDP/IP stack instance. *)

(** {1 Overload control (DESIGN.md §15)} *)

val shard_overload : t -> int -> Overload.t option
(** Shard [k]'s overload controller (["overload.<k>.*"] when sharded,
    ["overload.*"] for the single shard); [None] unless
    [config.overload]. *)

val uring_overload : t -> Overload.t option
(** The runtime-wide controller guarding every thread's SyncProxy
    pending table (["overload.uring.*"]); [None] unless
    [config.overload]. *)

val total_overload_shed : t -> int
(** Data admissions refused by any controller — each one surfaced to
    the application as an accounted [EAGAIN], never a silent drop. *)

val total_overload_admitted : t -> int

val total_control_shed : t -> int
(** Control-class (breaker probe / Monitor) refusals; [0] by
    construction, exposed so soak assertions read a counter. *)

val total_edge_drops : t -> int
(** Frames the host NIC dropped at the edge across every shard's XSKs
    — where the fill-ring throttle pushes the flood while a shard is
    saturated. *)

val total_fill_throttles : t -> int
(** Refill iterations clamped by the overload edge throttle. *)

val total_wire_losses : t -> int
(** Frames the injected wire faults destroyed in flight on either link
    direction (drop + trunc + runt + giant), summed over both NICs. *)

val total_accounted_drops : t -> int
(** Every datagram death that left an accounting trail: netstack drop
    counters (including overload sheds), NIC edge drops, wire-fault
    losses, and descriptor/ring rejects.  Loss checks read
    {!accounted_losses}, which builds on this total. *)

val accounted_losses : t -> int
(** Every server-side datagram death, each counted once:
    {!total_accounted_drops} plus the overload sheds the netstack drop
    counters do not already hold (TX-side [EAGAIN] and SyncProxy sheds;
    rx-gate sheds are already there as [drop.overload-shed]).  The one
    server-side leg of {!Apps.Harness.unaccounted}. *)

(** {1 Degraded mode (DESIGN.md §9)} *)

val set_slow_path : t -> Syncproxy.slow_ops -> unit
(** Install the exit-based io_uring slow path; applied to every existing
    and future {!new_thread} SyncProxy when [config.degraded]. *)

val set_udp_slow_path : t -> slow_udp -> unit
(** Install the exit-based UDP slow path.  Until this is called the XSK
    breakers only observe (routing never changes): failover needs a slow
    path to fail over {e to}. *)

val xsk_breaker : t -> Health.t
(** Shard 0's XSK circuit breaker — the runtime-wide breaker when
    [num_queues = 1]; see {!shard_breaker} for the rest. *)

val uring_breaker : t -> Health.t
(** The io_uring circuit breaker (["health.uring.*"]), shared by every
    thread's SyncProxy and FM overload feed (io_uring FMs are
    per-thread, not per-queue, so this breaker stays runtime-wide). *)

val mm_breaker : t -> Health.t
(** The Monitor Module breaker (["health.mm.*"]), fed by the watchdog:
    open means the watchdog stops restarting persistently dying MMs and
    carries the load with in-enclave degraded scans instead.  One
    breaker for all shards — the watchdog is a single enclave thread. *)

val health_observations : t -> (string * Health.observation) list
(** Pure snapshot of every breaker in the machine — per-shard XSK
    breakers (named ["xsk"] / ["xsk.<k>"]) then ["uring"] and ["mm"] —
    the observation hook golden traces and the TM explorer's
    conformance checks consume (DESIGN.md §11).  Side-effect free. *)

val monitor_observations : t -> (string * Monitor.observation) list
(** Pure snapshot of every shard MM's liveness state and wakeup
    counters (named ["mm"] / ["mm.<k>"]).  Side-effect free. *)

(** {1 UDP syscalls (XDP fast path — no enclave exits)} *)

val udp_socket : t -> udp_sock
(** Allocate an unbound UDP socket. *)

val udp_bind : t -> udp_sock -> int -> (unit, Abi.Errno.t) result
(** Bind to a UDP port on {e every} shard's stack; from then on the XDP
    program steers matching traffic to the serving shard's XSKs instead
    of the host stack.  Mirrored binds use the same concrete port
    everywhere, so the shard port tables stay identical and ephemeral
    allocation (port [0], resolved on shard 0) never collides. *)

val udp_sendto :
  t ->
  udp_sock ->
  Bytes.t ->
  dst:Packet.Addr.Ip.t * int ->
  (int, Abi.Errno.t) result
(** Transmit one datagram through the in-enclave stack and the XSK TX
    path of the shard the flow's RSS hash selects — no enclave exit; the
    shard's Monitor Module kicks the host side.  With a slow path
    installed and that shard's XSK breaker not [Closed], the datagram is
    rerouted through the exit-based host socket instead; [EAGAIN] only
    when both paths refuse (backpressure — the datagram was never
    accepted, so nothing is silently lost). *)

val udp_recvfrom :
  t ->
  udp_sock ->
  max:int ->
  (Bytes.t * (Packet.Addr.Ip.t * int), Abi.Errno.t) result
(** Dequeue one received datagram (payload truncated to [max]) plus the
    sender's address; [EAGAIN] when every source is empty.  All shard
    sockets are polled (a flow's datagrams surface on exactly one, per
    RSS); while a fallback host socket exists (breaker open, or still
    draining just after failback) it is polled too, via the exit-based
    slow path. *)

val udp_readable : t -> udp_sock -> bool
(** [true] iff a datagram is queued on any shard socket or the fallback
    ([udp_recvfrom] would not block). *)

val udp_close : t -> udp_sock -> unit
(** Release the socket (on every shard) and its port reservation. *)

(** {1 Per-thread io_uring contexts} *)

val new_thread : t -> (thread, string) result
(** Create the calling user thread's io_uring FM + SyncProxy (the
    io_uring setup syscalls run via one OCALL).  The thread is assigned
    to a shard round-robin: that shard's MM watches its ring, and
    shard-pinned faults on the io_uring path key off the assignment. *)

val syncproxy : thread -> Syncproxy.t
(** The thread's SyncProxy, through which blocking IO syscalls go. *)

val thread_runtime : thread -> t
(** The runtime the thread belongs to. *)

(** {1 Introspection} *)

val total_ring_check_failures : t -> int
(** Certified-ring index rejections summed over every ring in the
    system (all shards' XSK quads plus io_uring SQ/CQ pairs). *)

val total_desc_rejects : t -> int
(** Descriptor-level rejections: out-of-UMem XSK descriptors plus
    forged/stray io_uring CQEs. *)

val total_zc_sends : t -> int
(** SEND_ZC frames lent to the kernel, summed over every io_uring FM
    (zero when [config.zerocopy] is off). *)

val total_zc_fallbacks : t -> int
(** Zero-copy operations that degraded to the copy path (dry pool or
    bounced submission), summed over every io_uring FM. *)

val total_zc_notifs : t -> int
(** Validated notifs — frames returned from [Registered] — summed over
    every io_uring FM. *)

val total_zc_notif_rejects : t -> int
(** Refused notifs (forged-early + stray/duplicate), summed over every
    io_uring FM. *)

val total_zc_leaks : t -> int
(** Frames still awaiting a notif the host has withheld, summed over
    every io_uring FM.  Non-zero at quiescence is the dropped-notif
    attack's footprint and a campaign failure. *)

val invariant_holds : t -> bool
(** Conjunction of every certified ring's local invariant, every UMem's
    frame-conservation invariant (no frame leaked or double-owned), and
    every io_uring ring pair's invariant — the Table 2 safety statement
    extended with the §8 leak-freedom obligation, over all shards. *)

val start_watchdog : t -> unit
(** Spawn the in-enclave watchdog (DESIGN.md §8): every
    {!Sgx.Params.watchdog_period} cycles it samples {e each} shard
    Monitor Module's liveness ({!Monitor.alive} / {!Monitor.last_beat});
    on a crash or a beat staler than {!Sgx.Params.watchdog_timeout} it
    runs one degraded scan from inside the enclave and restarts that MM.
    When [config.degraded], restarts additionally go through the MM
    breaker ({!mm_breaker}): persistently dying Monitors open it and
    stop earning restarts (scans continue), half-open probes are restart
    attempts, and sustained healthy periods — no shard MM unhealthy —
    close it again.  Call after installing a fault injector
    ({!Hostos.Kernel.set_faults}) — its periodic timer keeps the event
    queue alive, so fault-free runs that terminate on queue exhaustion
    should not start it. *)

val watchdog_restarts : t -> int
(** Monitor restarts performed by the watchdog (["watchdog.restarts"]). *)

val watchdog_degraded_scans : t -> int
(** In-enclave degraded scans the watchdog ran in place of a healthy
    Monitor Module (["watchdog.degraded_scans"]). *)

val tx_round_robin : t -> int
(** Frames transmitted through the stacks' transmit hooks (all shards). *)

val udp_activity : t -> udp_sock -> Sim.Condition.t list
(** Activity conditions of a bound socket, one per shard (poll support);
    [[]] when unbound. *)
