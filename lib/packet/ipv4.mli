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

val build : t -> Bytes.t
(** Serializes with a correct header checksum. *)

val build_fragment : t -> frag_offset:int -> more:bool -> Bytes.t
(** Like {!build} with the MF bit and fragment offset (in bytes) set.

    @raise Invalid_argument
      if [frag_offset] is negative, not a multiple of 8 or beyond the
      13-bit field. *)

val parse : Bytes.t -> (t, error) result
(** Validates version, IHL, total length, checksum, fragmentation and
    TTL > 0; the returned payload is trimmed to the header's total
    length. *)

val parse_fragment : Bytes.t -> (fragment, error) result
(** Like {!parse} but accepts fragments instead of rejecting them with
    [Fragmented]: same header validation, fragment metadata surfaced
    for the reassembler.  Never raises on any input. *)

val pp_error : Format.formatter -> error -> unit
