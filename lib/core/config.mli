(** RAKIS runtime configuration.

    The paper's deployment story (§7): the user supplies only essential
    networking parameters — MAC address, IP address and NIC queue ids
    for the XSKs — plus memory sizing.  Values here are copied into
    trusted memory at startup and treated as the ground truth against
    which all host-provided values are checked (e.g. ring masks are
    derived from [ring_size], never read from the host). *)

type t = {
  ip : Packet.Addr.Ip.t;  (** the enclave's IP (defaults to iface 0's) *)
  mac : Packet.Addr.Mac.t;  (** the enclave's MAC *)
  num_xsks : int;
      (** XSKs per shard, one FM thread each (paper §4.1 QoS); a shard
          builds at most one XSK per NIC queue the shard owns *)
  num_queues : int;
      (** datapath shards: each shard owns one set of XSKs + UMem, its
          own in-enclave stack instance and its own Monitor, and serves
          the NIC queues whose RSS hash maps to it.  Default 1 — one
          shard over all NIC queues, the pre-sharding behaviour. *)
  ring_size : int;  (** entries per XSK ring (power of two) *)
  umem_size : int;  (** bytes of UMem per XSK *)
  frame_size : int;  (** bytes per UMem frame *)
  uring_entries : int;  (** iSub entries per per-thread io_uring *)
  max_io_size : int;  (** bounce-buffer bytes per io_uring FM *)
  locking : Netstack.Stack.locking;  (** UDP/IP stack lock discipline *)
  use_sqpoll : bool;
      (** [IORING_SETUP_SQPOLL] (paper §4.3): a kernel thread polls iSub
          itself, so submissions need no [io_uring_enter] from the MM at
          all — trading a busy kernel thread for the last wakeup
          syscalls.  Default false (the paper's MM-driven design). *)
  max_pending : int;
      (** admission bound on in-flight io_uring ops per FM; beyond it
          new work is shed with [EAGAIN]; default 256 *)
  zerocopy : bool;
      (** enable the zero-copy io_uring datapath (docs/zerocopy.md):
          each FM registers a pool of shared-memory frames at setup;
          sends go out as [SEND_ZC] from Registered UMem frames (freed
          only on notif), file read/write use fixed-buffer SQEs (no
          kernel-side bounce copy) and TCP receive is armed multishot.
          Default false — the classic bounce-buffer path. *)
  overload : bool;
      (** enable the overload-control subsystem (DESIGN.md §15): one
          {!Overload} controller per datapath shard guarding the
          netstack rx queues (CoDel sojourn + hysteretic watermarks,
          with fill-ring edge throttling and [EAGAIN] send pushback)
          plus one runtime-wide controller on the io_uring pending
          tables.  Default false — PR 8 behaviour, no admission beyond
          [max_pending]. *)
}

val default : t
(** The paper's evaluation setup: 1 XSK, 2 K rings, 16 MiB UMem, 2 KiB
    frames, fine-grained stack locking. *)

val validate : t -> (unit, string) result
(** Sanity rules: power-of-two rings, frame divides UMem, etc. *)

(** {1 Fixed tuning}

    Recovery, degradation and zero-copy tuning that no deployment
    varies: one definition each, shared by every FM and breaker.
    Graceful degradation (DESIGN.md §9) is always on — the breakers
    reroute through whatever exit-based slow path the LibOS installs. *)

val rx_burst : int
(** Max descriptors an FM moves per certified-ring batch: one
    peer-index validation and one index publish cover up to this many
    slots (AF_XDP drivers use 32–64); clamped to [ring_size].  64. *)

val retry_limit : int
(** Max retries of one transient host failure before the FM gives up
    and reports [ETIMEDOUT] (DESIGN.md §8).  8. *)

val backoff_base : int64
(** First retry backoff in cycles (doubles per attempt).  500. *)

val backoff_cap : int64
(** Backoff ceiling in cycles.  16,000 (~6.7 µs). *)

val reinit_threshold : int
(** Consecutive-iteration certified-ring failures after which an XSK FM
    quarantines and re-initializes its rings.  32. *)

val sync_op_timeout : int64
(** Cycles a synchronous prompt-class io_uring op (Read / Write / Send /
    Nop) waits for its CQE before abandoning the attempt — the
    anti-livelock deadline under persistent wakeup loss.  1,000,000
    (well above the worst legitimate sync op). *)

val zc_frames : int
(** Registered frames per FM zero-copy pool.  32. *)

val zc_frame_size : int
(** Bytes per registered zero-copy frame.  16 KiB — large frames
    amortize per-op costs on streaming sends. *)

val breaker_threshold : int
(** Consecutive terminal failures that open a circuit breaker.  3. *)

val breaker_cooldown : int64
(** Cycles a breaker stays [Open] before the next op may probe
    ([Half_open]).  400,000 (~167 µs). *)

val breaker_probes : int
(** Consecutive probe successes that close a half-open breaker
    (failback hysteresis).  4. *)

val slo_p99 : int64
(** p99 latency objective, in cycles, for {e admitted} requests — the
    acceptance currency of the soak harness.  Not consulted by the hot
    path.  2,400,000 (1 ms at the simulated 2.4 GHz clock). *)
