type t = { src_port : int; dst_port : int; payload : Bytes.t }

type error =
  | Truncated of int
  | Bad_length of int * int
  | Bad_checksum of int * int
  | Bad_port

let header_size = 8

let max_payload = 1500 - Ipv4.header_size - header_size

let pseudo ~src ~dst len =
  Checksum.pseudo_header_sum ~src:(Addr.Ip.to_int src)
    ~dst:(Addr.Ip.to_int dst) ~proto:17 ~len

(* The checksum a sender stores for the [len]-byte datagram at [off]. *)
let checksum_of ~src ~dst b off len =
  let c =
    Checksum.finish
      (pseudo ~src ~dst len + Checksum.sum_around b off len ~field:6)
  in
  (* An all-zero computed checksum is transmitted as 0xffff (RFC 768). *)
  if c = 0 then 0xffff else c

let write_header b ~off ~src ~dst ~src_port ~dst_port ~len =
  Bytes.set_uint16_be b off (src_port land 0xffff);
  Bytes.set_uint16_be b (off + 2) (dst_port land 0xffff);
  Bytes.set_uint16_be b (off + 4) len;
  Bytes.set_uint16_be b (off + 6) (checksum_of ~src ~dst b off len)

let build ~src ~dst t =
  let plen = Bytes.length t.payload in
  let len = header_size + plen in
  let b = Bytes.create len in
  Bytes.blit t.payload 0 b header_size plen;
  write_header b ~off:0 ~src ~dst ~src_port:t.src_port ~dst_port:t.dst_port
    ~len;
  b

let src_port b ~off = Bytes.get_uint16_be b off

let dst_port b ~off = Bytes.get_uint16_be b (off + 2)

(* A non-zero stored checksum is verified in place: the ones'-sum of the
   pseudo-header and the datagram, stored field included, folds to
   0xffff — its [finish] is 0 — exactly when the stored field is the one
   {!checksum_of} computes. *)
let check ~src ~dst b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Udp.check: range out of bounds";
  if len < header_size then Error (Truncated len)
  else
    let ulen = Bytes.get_uint16_be b (off + 4) in
    if ulen < header_size || ulen > len then Error (Bad_length (ulen, len))
    else if src_port b ~off = 0 || dst_port b ~off = 0 then Error Bad_port
    else
      let stored = Bytes.get_uint16_be b (off + 6) in
      if
        stored <> 0
        && Checksum.finish
             (pseudo ~src ~dst ulen + Checksum.ones_sum b off ulen)
           <> 0
      then Error (Bad_checksum (checksum_of ~src ~dst b off ulen, stored))
      else Ok (ulen - header_size)

let parse ~src ~dst b =
  match check ~src ~dst b ~off:0 ~len:(Bytes.length b) with
  | Error e -> Error e
  | Ok n ->
      Ok
        {
          src_port = src_port b ~off:0;
          dst_port = dst_port b ~off:0;
          payload = Bytes.sub b header_size n;
        }

let pp_error ppf = function
  | Truncated n -> Format.fprintf ppf "truncated udp datagram (%d bytes)" n
  | Bad_length (c, h) ->
      Format.fprintf ppf "bad udp length %d (buffer %d)" c h
  | Bad_checksum (e, f) ->
      Format.fprintf ppf "bad udp checksum: expected %#x, found %#x" e f
  | Bad_port -> Format.fprintf ppf "udp port 0 rejected"
