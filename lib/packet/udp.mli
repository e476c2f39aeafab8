(** UDP (RFC 768). *)

type t = { src_port : int; dst_port : int; payload : Bytes.t }

type error =
  | Truncated of int
  | Bad_length of int * int  (** header claims, buffer has *)
  | Bad_checksum of int * int  (** expected, found *)
  | Bad_port  (** source or destination port 0 is rejected *)

val header_size : int
(** 8. *)

val max_payload : int
(** Largest UDP payload in a standard 1500-byte MTU frame: 1472. *)

val write_header :
  Bytes.t ->
  off:int ->
  src:Addr.Ip.t ->
  dst:Addr.Ip.t ->
  src_port:int ->
  dst_port:int ->
  len:int ->
  unit
(** Write the 8 header bytes of the [len]-byte datagram at [off]: the
    ports, the length and the pseudo-header checksum for [src]/[dst]
    over the payload already in place at [off + 8]. *)

val build : src:Addr.Ip.t -> dst:Addr.Ip.t -> t -> Bytes.t
(** Serializes with the pseudo-header checksum filled in. *)

(** {1 In place}

    {!check} validates a datagram inside a borrowed buffer without
    copying it — the checksum included; the port readers then read the
    header where it lies.  Nothing outside the checked range is read. *)

val check :
  src:Addr.Ip.t ->
  dst:Addr.Ip.t ->
  Bytes.t ->
  off:int ->
  len:int ->
  (int, error) result
(** Validates the datagram in the [len] bytes at [off]: length, ports
    and (when non-zero) the checksum against the pseudo-header for
    [src]/[dst].  [Ok n]: the payload is the [n] bytes at
    [off + header_size].  Raises [Invalid_argument] when the range
    exceeds the buffer. *)

val src_port : Bytes.t -> off:int -> int
(** The source port of the datagram at [off] (which {!check}
    accepted). *)

val dst_port : Bytes.t -> off:int -> int

(** {1 Records} *)

val parse : src:Addr.Ip.t -> dst:Addr.Ip.t -> Bytes.t -> (t, error) result
(** {!check} of the whole buffer, read into a record whose payload is a
    copy. *)

val pp_error : Format.formatter -> error -> unit
