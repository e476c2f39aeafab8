(** Kernel-side ring endpoint with a private index.

    Real kernels keep their ring cursors in kernel-internal memory and
    only {e write} the shared index word on publish; they never read
    their own index back from shared memory.  This module gives the
    simulated kernel the same structure, so a {!Malice} smash of a
    kernel-owned shared index confuses the {e enclave's} view (which
    the certified rings must catch) without corrupting the kernel's own
    bookkeeping — and the next honest publish repairs the shared word,
    making index attacks transient unless re-applied. *)

type t

val consumer : Rings.Layout.t -> t
(** Kernel consumes this ring (xFill, xTX, iSub): private head starts
    at the current shared consumer index. *)

val producer : Rings.Layout.t -> t
(** Kernel produces this ring (xRX, xCompl, iCompl): private tail
    starts at the current shared producer index. *)

val pos : t -> int
(** The private cursor (kernel-internal truth). *)

val available : t -> int
(** Entries a consumer endpoint may consume, clamped to [0, size] — a
    smashed opposite index yields 0, never a wild loop. *)

val free : t -> int
(** Slots a producer endpoint may fill, clamped likewise. *)

val consume_slot : t -> int
(** The slot offset at the private head, or [-1] when nothing may be
    consumed.  {!consumed} then advances past it — the two halves of
    {!consume}, without its closure and option. *)

val consumed : t -> unit

val produce_slot : t -> int
(** The slot offset at the private tail, or [-1] when full; {!produced}
    then publishes it.  The two halves of {!produce}. *)

val produced : t -> unit

val consume : t -> read:(slot_off:int -> 'a) -> 'a option
(** Read one slot at the private head, advance it, republish the shared
    consumer word honestly. *)

val produce : t -> write:(slot_off:int -> unit) -> bool
(** Write one slot at the private tail, advance it, republish the
    shared producer word honestly.  [false] when full. *)

val publish_consumer : t -> unit
(** Rewrite the shared consumer word from the private cursor (honest
    refresh — repairs any smash). *)

val publish_producer : t -> unit
