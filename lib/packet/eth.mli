(** Ethernet II framing. *)

type ethertype = Ipv4 | Arp | Unknown of int

type t = {
  dst : Addr.Mac.t;
  src : Addr.Mac.t;
  ethertype : ethertype;
  payload : Bytes.t;
}

type error = Truncated of int  (** actual length; a frame needs >= 14 B *)

val header_size : int
(** 14. *)

val ethertype_to_int : ethertype -> int

val ethertype_of_int : int -> ethertype

val write_header :
  Bytes.t ->
  off:int ->
  dst:Addr.Mac.t ->
  src:Addr.Mac.t ->
  ethertype:ethertype ->
  unit
(** Write the 14 header bytes at [off]; the payload is not touched. *)

val build : t -> Bytes.t
(** Serialize header + payload into a fresh buffer. *)

(** {1 In place}

    {!check} validates the header of a frame inside a borrowed buffer
    without copying it; the field readers then read the header where it
    lies.  Nothing outside the checked range is read. *)

val check : Bytes.t -> off:int -> len:int -> (int, error) result
(** Validate the [len]-byte frame at [off].  [Ok n]: the payload is the
    [n] bytes at [off + header_size].  Raises [Invalid_argument] when
    the range exceeds the buffer. *)

val dst : Bytes.t -> off:int -> Addr.Mac.t
(** The destination of the frame at [off] (which {!check} accepted). *)

val src : Bytes.t -> off:int -> Addr.Mac.t

val ethertype : Bytes.t -> off:int -> ethertype

(** {1 Records} *)

val parse : Bytes.t -> (t, error) result
(** {!check} of the whole buffer, read into a record whose payload is a
    copy. *)

val pp_error : Format.formatter -> error -> unit
