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
  | Bad_total_length of int * int
  | Bad_checksum of int * int
  | Fragmented
  | Ttl_expired

let header_size = 20

let proto_to_int = function
  | Icmp -> 1
  | Tcp -> 6
  | Udp -> 17
  | Other v -> v land 0xff

let proto_of_int = function
  | 1 -> Icmp
  | 6 -> Tcp
  | 17 -> Udp
  | v -> Other v

let set_ip b off ip =
  Bytes.set_int32_be b off (Int32.of_int (Addr.Ip.to_int ip))

let get_ip b off =
  Addr.Ip.of_int (Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF)

type fragment = { packet : t; frag_offset : int; more : bool }

let write_header b ~off ~src ~dst ~proto ~ttl ~ident ~flags_frag ~payload_len =
  Bytes.set_uint8 b off 0x45 (* version 4, ihl 5 *);
  Bytes.set_uint8 b (off + 1) 0 (* dscp/ecn *);
  Bytes.set_uint16_be b (off + 2) (header_size + payload_len);
  Bytes.set_uint16_be b (off + 4) (ident land 0xffff);
  Bytes.set_uint16_be b (off + 6) flags_frag;
  Bytes.set_uint8 b (off + 8) (ttl land 0xff);
  Bytes.set_uint8 b (off + 9) (proto_to_int proto);
  set_ip b (off + 12) src;
  set_ip b (off + 16) dst;
  Bytes.set_uint16_be b (off + 10)
    (Checksum.finish (Checksum.sum_around b off header_size ~field:10))

let build_with_frag t ~flags_frag =
  let len = Bytes.length t.payload in
  let b = Bytes.create (header_size + len) in
  write_header b ~off:0 ~src:t.src ~dst:t.dst ~proto:t.proto ~ttl:t.ttl
    ~ident:t.ident ~flags_frag ~payload_len:len;
  Bytes.blit t.payload 0 b header_size len;
  b

let build t = build_with_frag t ~flags_frag:0

let build_fragment t ~frag_offset ~more =
  if frag_offset < 0 || frag_offset mod 8 <> 0 || frag_offset lsr 3 > 0x1fff
  then invalid_arg "Ipv4.build_fragment: offset must be a multiple of 8";
  build_with_frag t
    ~flags_frag:((if more then 0x2000 else 0) lor (frag_offset lsr 3))

let src b ~off = get_ip b (off + 12)

let dst b ~off = get_ip b (off + 16)

let proto b ~off = proto_of_int (Bytes.get_uint8 b (off + 9))

let ttl b ~off = Bytes.get_uint8 b (off + 8)

let flags_frag b ~off = Bytes.get_uint16_be b (off + 6)

(* The header validation every entry point shares: everything up to —
   but not including — the fragmentation and TTL decisions, so all of
   them reject malformed headers identically.  [Ok] carries the payload
   length the header's total length implies. *)
let check_header b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Ipv4.check: range out of bounds";
  if len < header_size then Error (Truncated len)
  else
    let vihl = Bytes.get_uint8 b off in
    let version = vihl lsr 4 and ihl = vihl land 0xf in
    if version <> 4 then Error (Bad_version version)
    else if ihl <> 5 then Error (Bad_ihl ihl)
    else
      let total = Bytes.get_uint16_be b (off + 2) in
      if total < header_size || total > len then
        Error (Bad_total_length (total, len))
      else if not (Checksum.valid b off header_size) then
        let expected =
          Checksum.finish (Checksum.sum_around b off header_size ~field:10)
        in
        Error (Bad_checksum (expected, Bytes.get_uint16_be b (off + 10)))
      else Ok (total - header_size)

let check b ~off ~len =
  match check_header b ~off ~len with
  | Error _ as e -> e
  | Ok _ as ok ->
      (* MF set, or a non-zero fragment offset *)
      if flags_frag b ~off land 0x3fff <> 0 then Error Fragmented
      else if ttl b ~off = 0 then Error Ttl_expired
      else ok

let read b n =
  {
    src = src b ~off:0;
    dst = dst b ~off:0;
    proto = proto b ~off:0;
    ttl = ttl b ~off:0;
    ident = Bytes.get_uint16_be b 4;
    payload = Bytes.sub b header_size n;
  }

let parse b =
  match check b ~off:0 ~len:(Bytes.length b) with
  | Error e -> Error e
  | Ok n -> Ok (read b n)

let parse_fragment b =
  match check_header b ~off:0 ~len:(Bytes.length b) with
  | Error e -> Error e
  | Ok n ->
      if ttl b ~off:0 = 0 then Error Ttl_expired
      else
        let ff = flags_frag b ~off:0 in
        Ok
          {
            packet = read b n;
            frag_offset = (ff land 0x1fff) * 8;
            more = ff land 0x2000 <> 0;
          }

let pp_error ppf = function
  | Truncated n -> Format.fprintf ppf "truncated ipv4 packet (%d bytes)" n
  | Bad_version v -> Format.fprintf ppf "bad ip version %d" v
  | Bad_ihl v -> Format.fprintf ppf "unsupported ihl %d" v
  | Bad_total_length (t, l) ->
      Format.fprintf ppf "bad total length %d (buffer %d)" t l
  | Bad_checksum (e, f) ->
      Format.fprintf ppf "bad ip checksum: expected %#x, found %#x" e f
  | Fragmented -> Format.fprintf ppf "fragmented packet (unsupported)"
  | Ttl_expired -> Format.fprintf ppf "ttl expired"
