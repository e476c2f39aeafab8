(** Whole-frame helpers: build and dissect a complete Ethernet/IPv4/UDP
    frame in one call.  Both the kernel network path and the in-enclave
    stack use these, so wire formats cannot drift apart. *)

type udp_info = {
  src_mac : Addr.Mac.t;
  dst_mac : Addr.Mac.t;
  src_ip : Addr.Ip.t;
  dst_ip : Addr.Ip.t;
  src_port : int;
  dst_port : int;
}

val build_udp : udp_info -> Bytes.t -> Bytes.t
(** [build_udp info payload] is a full layer-2 frame, written into one
    buffer of its final size. *)

type dissect_error =
  | Eth of Eth.error
  | Not_ipv4
  | Ip of Ipv4.error
  | Not_udp
  | Udp_err of Udp.error

val check_udp : Bytes.t -> len:int -> (int, dissect_error) result
(** Validate the frame in the first [len] bytes of the buffer down to
    the UDP payload, every layer in place and nothing past [len] read.
    [Ok n]: the payload is the [n] bytes at {!frame_overhead}.  Raises
    [Invalid_argument] when [len] exceeds the buffer. *)

val dissect_udp : Bytes.t -> (udp_info * Bytes.t, dissect_error) result
(** {!check_udp} of the whole buffer, with the addresses and ports read
    into a record and the payload copied out. *)

val build_arp : src_mac:Addr.Mac.t -> dst_mac:Addr.Mac.t -> Arp.t -> Bytes.t

val frame_overhead : int
(** Bytes of Ethernet+IPv4+UDP headers per datagram (42). *)

val pp_dissect_error : Format.formatter -> dissect_error -> unit

val peek_udp_ports : Bytes.t -> (int * int) option
(** [(src_port, dst_port)] of a UDP frame, without any validation — used
    only for NIC receive-queue steering, mirroring hardware RSS. *)

val peek_udp_dst_port : Bytes.t -> int
(** The [dst_port] of {!peek_udp_ports}, or [-1] for a frame it rejects;
    allocates nothing. *)

val rss_queue : queues:int -> Bytes.t -> int
(** The {!Rss.queue} of a UDP frame's 4-tuple (IPs read as host-order
    ints, unvalidated, like {!peek_udp_ports}); [0] for a frame
    {!peek_udp_ports} rejects.  Allocates nothing. *)
