type udp_info = {
  src_mac : Addr.Mac.t;
  dst_mac : Addr.Mac.t;
  src_ip : Addr.Ip.t;
  dst_ip : Addr.Ip.t;
  src_port : int;
  dst_port : int;
}

type dissect_error =
  | Eth of Eth.error
  | Not_ipv4
  | Ip of Ipv4.error
  | Not_udp
  | Udp_err of Udp.error

let frame_overhead = Eth.header_size + Ipv4.header_size + Udp.header_size

let ident_counter = ref 0

let ip_off = Eth.header_size

let udp_off = Eth.header_size + Ipv4.header_size

(* The payload first, then the headers inside out — the UDP checksum
   covers the payload already in place — all in one buffer of the
   final size. *)
let build_udp info payload =
  let plen = Bytes.length payload in
  let udp_len = Udp.header_size + plen in
  let b = Bytes.create (frame_overhead + plen) in
  Bytes.blit payload 0 b frame_overhead plen;
  Udp.write_header b ~off:udp_off ~src:info.src_ip ~dst:info.dst_ip
    ~src_port:info.src_port ~dst_port:info.dst_port ~len:udp_len;
  incr ident_counter;
  Ipv4.write_header b ~off:ip_off ~src:info.src_ip ~dst:info.dst_ip
    ~proto:Ipv4.Udp ~ttl:64 ~ident:!ident_counter ~flags_frag:0
    ~payload_len:udp_len;
  Eth.write_header b ~off:0 ~dst:info.dst_mac ~src:info.src_mac
    ~ethertype:Ipv4;
  b

let check_udp frame ~len =
  match Eth.check frame ~off:0 ~len with
  | Error e -> Error (Eth e)
  | Ok ip_len -> (
      match Eth.ethertype frame ~off:0 with
      | Arp | Unknown _ -> Error Not_ipv4
      | Ipv4 -> (
          match Ipv4.check frame ~off:ip_off ~len:ip_len with
          | Error e -> Error (Ip e)
          | Ok udp_len -> (
              match Ipv4.proto frame ~off:ip_off with
              | Tcp | Icmp | Other _ -> Error Not_udp
              | Udp -> (
                  match
                    Udp.check
                      ~src:(Ipv4.src frame ~off:ip_off)
                      ~dst:(Ipv4.dst frame ~off:ip_off)
                      frame ~off:udp_off ~len:udp_len
                  with
                  | Error e -> Error (Udp_err e)
                  | Ok n -> Ok n))))

let info frame =
  {
    src_mac = Eth.src frame ~off:0;
    dst_mac = Eth.dst frame ~off:0;
    src_ip = Ipv4.src frame ~off:ip_off;
    dst_ip = Ipv4.dst frame ~off:ip_off;
    src_port = Udp.src_port frame ~off:udp_off;
    dst_port = Udp.dst_port frame ~off:udp_off;
  }

let dissect_udp frame =
  match check_udp frame ~len:(Bytes.length frame) with
  | Error e -> Error e
  | Ok n -> Ok (info frame, Bytes.sub frame frame_overhead n)

let build_arp ~src_mac ~dst_mac arp =
  Eth.build
    {
      Eth.dst = dst_mac;
      src = src_mac;
      ethertype = Arp;
      payload = Arp.build arp;
    }

let pp_dissect_error ppf = function
  | Eth e -> Eth.pp_error ppf e
  | Not_ipv4 -> Format.fprintf ppf "not an ipv4 frame"
  | Ip e -> Ipv4.pp_error ppf e
  | Not_udp -> Format.fprintf ppf "not a udp packet"
  | Udp_err e -> Udp.pp_error ppf e

(* Cheap un-validated extraction used for NIC queue steering; full
   validation happens later in whichever stack consumes the frame.  The
   offset of the UDP header, or [-1] when the frame is not UDP/IPv4 or
   too short to hold both ports. *)
let udp_offset frame =
  if Bytes.length frame < frame_overhead then -1
  else if Bytes.get_uint16_be frame 12 <> 0x0800 then -1
  else if Bytes.get_uint8 frame 23 <> 17 then -1
  else
    let ihl = (Bytes.get_uint8 frame 14 land 0xf) * 4 in
    let udp_off = Eth.header_size + ihl in
    if Bytes.length frame < udp_off + 4 then -1 else udp_off

(* IPs in host order straight from the IPv4 header (src at 26, dst at
   30). *)
let ip32 frame off =
  (Bytes.get_uint16_be frame off lsl 16) lor Bytes.get_uint16_be frame (off + 2)

let peek_udp_ports frame =
  let off = udp_offset frame in
  if off < 0 then None
  else Some (Bytes.get_uint16_be frame off, Bytes.get_uint16_be frame (off + 2))

let peek_udp_dst_port frame =
  let off = udp_offset frame in
  if off < 0 then -1 else Bytes.get_uint16_be frame (off + 2)

let rss_queue ~queues frame =
  let off = udp_offset frame in
  if off < 0 then 0
  else
    Rss.queue ~queues
      ~src_ip:(ip32 frame (Eth.header_size + 12))
      ~dst_ip:(ip32 frame (Eth.header_size + 16))
      ~src_port:(Bytes.get_uint16_be frame off)
      ~dst_port:(Bytes.get_uint16_be frame (off + 2))
