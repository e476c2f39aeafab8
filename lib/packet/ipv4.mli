(** IPv4 headers (RFC 791), without options — matching the slimmed LWIP
    the paper retains for RAKIS's UDP path.  {!parse} still refuses
    fragments (the XDP fast path treats them as an exception, not the
    rule); {!parse_fragment}/{!build_fragment} expose the fragment
    machinery so the netstack's bounded reassembler — and the hostile
    host impersonating one — can speak it (DESIGN.md §16). *)

type proto = Udp | Tcp | Icmp | Other of int

type t = {
  src : Addr.Ip.t;
  dst : Addr.Ip.t;
  proto : proto;
  ttl : int;
  ident : int;
  payload : Bytes.t;
}

type error =
  | Truncated of int
  | Bad_version of int
  | Bad_ihl of int
  | Bad_total_length of int * int  (** header claims, buffer has *)
  | Bad_checksum of int * int  (** expected, found *)
  | Fragmented
  | Ttl_expired

val header_size : int
(** 20 (no options). *)

val proto_to_int : proto -> int

type fragment = { packet : t; frag_offset : int; more : bool }
(** One fragment: [packet.payload] is this fragment's slice of the
    original datagram, starting [frag_offset] bytes in (always a
    multiple of 8); [more] is the wire MF bit.  An unfragmented packet
    is [{ frag_offset = 0; more = false }]. *)

val write_header :
  Bytes.t ->
  off:int ->
  src:Addr.Ip.t ->
  dst:Addr.Ip.t ->
  proto:proto ->
  ttl:int ->
  ident:int ->
  flags_frag:int ->
  payload_len:int ->
  unit
(** Write the 20 header bytes at [off], header checksum included, for a
    packet carrying [payload_len] payload bytes; the payload is not
    touched.  [flags_frag] is the raw flags/fragment-offset word. *)

val build : t -> Bytes.t
(** Serializes with a correct header checksum. *)

val build_fragment : t -> frag_offset:int -> more:bool -> Bytes.t
(** Like {!build} with the MF bit and fragment offset (in bytes) set.

    @raise Invalid_argument
      if [frag_offset] is negative, not a multiple of 8 or beyond the
      13-bit field. *)

(** {1 In place}

    {!check} validates a header inside a borrowed buffer without copying
    it; the field readers then read the header where it lies.  Nothing
    outside the checked range is read. *)

val check : Bytes.t -> off:int -> len:int -> (int, error) result
(** Validates the [len]-byte packet at [off]: version, IHL, total
    length, checksum, fragmentation and TTL > 0.  [Ok n]: the payload,
    trimmed to the header's total length, is the [n] bytes at
    [off + header_size].  Raises [Invalid_argument] when the range
    exceeds the buffer. *)

val src : Bytes.t -> off:int -> Addr.Ip.t
(** The source of the header at [off] (which {!check} accepted). *)

val dst : Bytes.t -> off:int -> Addr.Ip.t

val proto : Bytes.t -> off:int -> proto

(** {1 Records} *)

val parse : Bytes.t -> (t, error) result
(** {!check} of the whole buffer, read into a record whose payload is a
    copy. *)

val parse_fragment : Bytes.t -> (fragment, error) result
(** Like {!parse} but accepts fragments instead of rejecting them with
    [Fragmented]: same header validation, fragment metadata surfaced
    for the reassembler.  Never raises on any input. *)

val pp_error : Format.formatter -> error -> unit
