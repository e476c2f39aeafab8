(** RFC 1071 Internet checksum. *)

val ones_sum : ?init:int -> Bytes.t -> int -> int -> int
(** [ones_sum ~init b off len] folds the 16-bit one's-complement sum of
    [len] bytes starting at [off] into [init] (an odd trailing byte is
    padded with zero, as the RFC specifies).  Internally sums 64-bit
    big-endian words with a 16-bit tail loop — RFC 1071 §2(A) allows
    any grouping because the sum is mod [0xffff]. *)

val ones_sum_scalar : ?init:int -> Bytes.t -> int -> int -> int
(** The straightforward 16-bit-at-a-time loop, kept as the reference
    implementation: property tests assert it agrees with {!ones_sum}
    everywhere, and the micro-benchmark reports the speedup. *)

val finish : int -> int
(** One's-complement of a folded sum, as the 16-bit checksum field
    value. *)

val compute : Bytes.t -> int -> int -> int
(** [compute b off len] is [finish (ones_sum b off len)]. *)

val valid : Bytes.t -> int -> int -> bool
(** A region that embeds its own checksum field sums to 0xffff. *)

val sum_around : Bytes.t -> int -> int -> field:int -> int
(** [sum_around b off len ~field] is {!ones_sum} of the [len] bytes at
    [off] as if the 16-bit checksum field at [off + field] were zero,
    without writing to the buffer: [finish] of it is what a sender
    stores there, and what a receiver reports as expected when the
    stored value is wrong.  [field] must be even. *)

val pseudo_header_sum : src:int -> dst:int -> proto:int -> len:int -> int
(** One's-complement sum of the IPv4 pseudo-header used by UDP/TCP. *)
