(* Tests for address parsing, checksums and the Ethernet/ARP/IPv4/UDP
   codecs, including property-based roundtrips and total parsing. *)

open Packet

let mac = Addr.Mac.of_repr "02:00:00:00:00:01"

let mac2 = Addr.Mac.of_repr "02:00:00:00:00:02"

let ip = Addr.Ip.of_repr "10.0.0.1"

let ip2 = Addr.Ip.of_repr "10.0.0.2"

(* {1 Addresses} *)

let test_mac_repr () =
  Alcotest.(check string) "pp" "02:00:00:00:00:01"
    (Format.asprintf "%a" Addr.Mac.pp mac);
  Alcotest.(check bool) "equal" true
    (Addr.Mac.equal mac (Addr.Mac.of_string (Addr.Mac.to_string mac)))

let test_mac_broadcast () =
  Alcotest.(check bool) "broadcast" true
    (Addr.Mac.is_broadcast Addr.Mac.broadcast);
  Alcotest.(check bool) "unicast" false (Addr.Mac.is_broadcast mac)

let test_mac_bad_repr () =
  (match Addr.Mac.of_repr "02:00" with
  | _ -> Alcotest.fail "expected failure"
  | exception Invalid_argument _ -> ());
  match Addr.Mac.of_string "abc" with
  | _ -> Alcotest.fail "expected failure"
  | exception Invalid_argument _ -> ()

let test_ip_repr () =
  Alcotest.(check string) "roundtrip" "10.0.0.1" (Addr.Ip.to_repr ip);
  Alcotest.(check int) "int value" 0x0A000001 (Addr.Ip.to_int ip)

let test_ip_bad_repr () =
  List.iter
    (fun s ->
      match Addr.Ip.of_repr s with
      | _ -> Alcotest.fail ("accepted " ^ s)
      | exception Invalid_argument _ -> ())
    [ "10.0.0"; "1.2.3.4.5"; "256.0.0.1"; "a.b.c.d" ]

(* {1 Checksum} *)

let test_checksum_rfc1071_example () =
  (* RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2, cksum 220d. *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "checksum" 0x220d (Checksum.compute b 0 8)

let test_checksum_odd_length () =
  let b = Bytes.of_string "\x01\x02\x03" in
  (* 0x0102 + 0x0300 = 0x0402; ~ = 0xFBFD *)
  Alcotest.(check int) "odd bytes padded" 0xFBFD (Checksum.compute b 0 3)

let test_checksum_self_verifies () =
  let b = Bytes.of_string "\x12\x34\x00\x00\x56\x78" in
  let c = Checksum.compute b 0 6 in
  Bytes.set_uint16_be b 2 c;
  Alcotest.(check bool) "valid" true (Checksum.valid b 0 6)

(* {1 Ethernet} *)

let test_eth_roundtrip () =
  let frame =
    Eth.build { Eth.dst = mac2; src = mac; ethertype = Ipv4; payload = Bytes.of_string "hi" }
  in
  match Eth.parse frame with
  | Error _ -> Alcotest.fail "parse"
  | Ok e ->
      Alcotest.(check bool) "dst" true (Addr.Mac.equal e.dst mac2);
      Alcotest.(check bool) "src" true (Addr.Mac.equal e.src mac);
      Alcotest.(check string) "payload" "hi" (Bytes.to_string e.payload)

let test_eth_truncated () =
  match Eth.parse (Bytes.create 13) with
  | Error (Eth.Truncated 13) -> ()
  | _ -> Alcotest.fail "expected Truncated 13"

let test_eth_ethertype_codes () =
  Alcotest.(check int) "ipv4" 0x0800 (Eth.ethertype_to_int Ipv4);
  Alcotest.(check int) "arp" 0x0806 (Eth.ethertype_to_int Arp);
  Alcotest.(check bool) "unknown roundtrip" true
    (Eth.ethertype_of_int 0x86dd = Eth.Unknown 0x86dd)

(* {1 ARP} *)

let arp_req =
  {
    Arp.op = Request;
    sender_mac = mac;
    sender_ip = ip;
    target_mac = Addr.Mac.zero;
    target_ip = ip2;
  }

let test_arp_roundtrip () =
  match Arp.parse (Arp.build arp_req) with
  | Error _ -> Alcotest.fail "parse"
  | Ok a ->
      Alcotest.(check bool) "op" true (a.op = Arp.Request);
      Alcotest.(check bool) "sender ip" true (Addr.Ip.equal a.sender_ip ip);
      Alcotest.(check bool) "target ip" true (Addr.Ip.equal a.target_ip ip2)

let test_arp_bad_fields () =
  let b = Arp.build arp_req in
  let case mutate expect =
    let b' = Bytes.copy b in
    mutate b';
    match Arp.parse b' with
    | Error e when expect e -> ()
    | _ -> Alcotest.fail "bad field accepted"
  in
  case (fun b -> Bytes.set_uint16_be b 0 7)
    (function Arp.Bad_hardware_type 7 -> true | _ -> false);
  case (fun b -> Bytes.set_uint16_be b 2 0x86dd)
    (function Arp.Bad_protocol_type _ -> true | _ -> false);
  case (fun b -> Bytes.set_uint8 b 4 8)
    (function Arp.Bad_sizes (8, 4) -> true | _ -> false);
  case (fun b -> Bytes.set_uint16_be b 6 3)
    (function Arp.Bad_op 3 -> true | _ -> false)

let test_arp_truncated () =
  match Arp.parse (Bytes.create 27) with
  | Error (Arp.Truncated 27) -> ()
  | _ -> Alcotest.fail "expected truncated"

(* {1 IPv4} *)

let ipv4_pkt payload =
  { Ipv4.src = ip; dst = ip2; proto = Udp; ttl = 64; ident = 7; payload }

let test_ipv4_roundtrip () =
  let b = Ipv4.build (ipv4_pkt (Bytes.of_string "data")) in
  match Ipv4.parse b with
  | Error _ -> Alcotest.fail "parse"
  | Ok p ->
      Alcotest.(check bool) "src" true (Addr.Ip.equal p.src ip);
      Alcotest.(check bool) "proto" true (p.proto = Ipv4.Udp);
      Alcotest.(check int) "ttl" 64 p.ttl;
      Alcotest.(check string) "payload" "data" (Bytes.to_string p.payload)

let test_ipv4_checksum_detects_corruption () =
  let b = Ipv4.build (ipv4_pkt (Bytes.of_string "data")) in
  Bytes.set_uint8 b 8 13 (* flip TTL without fixing checksum *);
  match Ipv4.parse b with
  | Error (Ipv4.Bad_checksum _) -> ()
  | _ -> Alcotest.fail "corrupted header accepted"

let test_ipv4_bad_version () =
  let b = Ipv4.build (ipv4_pkt Bytes.empty) in
  Bytes.set_uint8 b 0 0x65;
  match Ipv4.parse b with
  | Error (Ipv4.Bad_version 6) -> ()
  | _ -> Alcotest.fail "expected bad version"

let test_ipv4_options_rejected () =
  let b = Ipv4.build (ipv4_pkt Bytes.empty) in
  Bytes.set_uint8 b 0 0x46 (* ihl 6 *);
  match Ipv4.parse b with
  | Error (Ipv4.Bad_ihl 6) -> ()
  | _ -> Alcotest.fail "expected bad ihl"

let test_ipv4_total_length_bounds () =
  let b = Ipv4.build (ipv4_pkt (Bytes.of_string "data")) in
  Bytes.set_uint16_be b 2 (Bytes.length b + 1);
  Bytes.set_uint16_be b 10 0;
  Bytes.set_uint16_be b 10 (Checksum.compute b 0 20);
  match Ipv4.parse b with
  | Error (Ipv4.Bad_total_length _) -> ()
  | _ -> Alcotest.fail "oversize total length accepted"

let test_ipv4_payload_trimmed_to_total () =
  (* A frame padded past the IP total length (Ethernet minimum padding)
     must have its payload trimmed. *)
  let b = Ipv4.build (ipv4_pkt (Bytes.of_string "data")) in
  let padded = Bytes.cat b (Bytes.make 10 '\xAA') in
  match Ipv4.parse padded with
  | Ok p -> Alcotest.(check string) "trimmed" "data" (Bytes.to_string p.payload)
  | Error _ -> Alcotest.fail "padded frame rejected"

let test_ipv4_fragment_rejected () =
  let b = Ipv4.build (ipv4_pkt (Bytes.of_string "data")) in
  Bytes.set_uint16_be b 6 0x2000 (* MF set *);
  Bytes.set_uint16_be b 10 0;
  Bytes.set_uint16_be b 10 (Checksum.compute b 0 20);
  match Ipv4.parse b with
  | Error Ipv4.Fragmented -> ()
  | _ -> Alcotest.fail "fragment accepted"

let test_ipv4_ttl_zero () =
  let b = Ipv4.build { (ipv4_pkt Bytes.empty) with ttl = 0 } in
  match Ipv4.parse b with
  | Error Ipv4.Ttl_expired -> ()
  | _ -> Alcotest.fail "ttl 0 accepted"

(* {1 UDP} *)

let test_udp_roundtrip () =
  let b =
    Udp.build ~src:ip ~dst:ip2
      { Udp.src_port = 1234; dst_port = 5678; payload = Bytes.of_string "xyz" }
  in
  match Udp.parse ~src:ip ~dst:ip2 b with
  | Error _ -> Alcotest.fail "parse"
  | Ok u ->
      Alcotest.(check int) "src port" 1234 u.src_port;
      Alcotest.(check int) "dst port" 5678 u.dst_port;
      Alcotest.(check string) "payload" "xyz" (Bytes.to_string u.payload)

let test_udp_checksum_covers_pseudo_header () =
  let b =
    Udp.build ~src:ip ~dst:ip2
      { Udp.src_port = 1; dst_port = 2; payload = Bytes.of_string "xyz" }
  in
  (* Same datagram claimed from a different source must fail. *)
  match Udp.parse ~src:ip2 ~dst:ip2 b with
  | Error (Udp.Bad_checksum _) -> ()
  | _ -> Alcotest.fail "pseudo-header not covered"

let test_udp_corrupt_payload () =
  let b =
    Udp.build ~src:ip ~dst:ip2
      { Udp.src_port = 1; dst_port = 2; payload = Bytes.of_string "xyz" }
  in
  Bytes.set b (Bytes.length b - 1) 'Q';
  match Udp.parse ~src:ip ~dst:ip2 b with
  | Error (Udp.Bad_checksum _) -> ()
  | _ -> Alcotest.fail "corruption undetected"

let test_udp_zero_checksum_accepted () =
  let b =
    Udp.build ~src:ip ~dst:ip2
      { Udp.src_port = 1; dst_port = 2; payload = Bytes.of_string "abc" }
  in
  Bytes.set_uint16_be b 6 0 (* checksum disabled *);
  Bytes.set b (Bytes.length b - 1) 'Q' (* corruption invisible *);
  match Udp.parse ~src:ip ~dst:ip2 b with
  | Ok u -> Alcotest.(check string) "payload" "abQ" (Bytes.to_string u.payload)
  | Error _ -> Alcotest.fail "zero checksum rejected"

let test_udp_port_zero_rejected () =
  let b =
    Udp.build ~src:ip ~dst:ip2
      { Udp.src_port = 0; dst_port = 2; payload = Bytes.empty }
  in
  match Udp.parse ~src:ip ~dst:ip2 b with
  | Error Udp.Bad_port -> ()
  | _ -> Alcotest.fail "port 0 accepted"

let test_udp_length_field_bounds () =
  let b =
    Udp.build ~src:ip ~dst:ip2
      { Udp.src_port = 1; dst_port = 2; payload = Bytes.of_string "abc" }
  in
  Bytes.set_uint16_be b 4 100 (* longer than the buffer *);
  match Udp.parse ~src:ip ~dst:ip2 b with
  | Error (Udp.Bad_length (100, 11)) -> ()
  | _ -> Alcotest.fail "bogus length accepted"

(* {1 Frame} *)

let info =
  {
    Frame.src_mac = mac;
    dst_mac = mac2;
    src_ip = ip;
    dst_ip = ip2;
    src_port = 1111;
    dst_port = 2222;
  }

let test_frame_roundtrip () =
  let frame = Frame.build_udp info (Bytes.of_string "payload!") in
  match Frame.dissect_udp frame with
  | Error e -> Alcotest.failf "dissect: %a" Frame.pp_dissect_error e
  | Ok (info', payload) ->
      Alcotest.(check int) "src port" 1111 info'.src_port;
      Alcotest.(check int) "dst port" 2222 info'.dst_port;
      Alcotest.(check bool) "src ip" true (Addr.Ip.equal info'.src_ip ip);
      Alcotest.(check string) "payload" "payload!" (Bytes.to_string payload)

let test_frame_overhead () =
  let frame = Frame.build_udp info (Bytes.of_string "1234") in
  Alcotest.(check int) "overhead" (4 + Frame.frame_overhead)
    (Bytes.length frame)

let test_frame_peek_ports () =
  let frame = Frame.build_udp info (Bytes.of_string "1234") in
  Alcotest.(check (option (pair int int))) "ports" (Some (1111, 2222))
    (Frame.peek_udp_ports frame);
  Alcotest.(check (option (pair int int))) "arp has none" None
    (Frame.peek_udp_ports (Frame.build_arp ~src_mac:mac ~dst_mac:mac2 arp_req))

let test_frame_dissect_rejects_arp () =
  let frame = Frame.build_arp ~src_mac:mac ~dst_mac:mac2 arp_req in
  match Frame.dissect_udp frame with
  | Error Frame.Not_ipv4 -> ()
  | _ -> Alcotest.fail "arp dissected as udp"

(* {1 Properties} *)

let bytes_gen = QCheck.Gen.(map Bytes.of_string (string_size (0 -- 256)))

let prop_udp_roundtrip =
  QCheck.Test.make ~name:"udp: build/parse roundtrip for any payload"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         triple (1 -- 0xffff) (1 -- 0xffff) bytes_gen))
    (fun (sp, dp, payload) ->
      let b =
        Udp.build ~src:ip ~dst:ip2
          { Udp.src_port = sp; dst_port = dp; payload }
      in
      match Udp.parse ~src:ip ~dst:ip2 b with
      | Ok u ->
          u.src_port = sp && u.dst_port = dp
          && Bytes.equal u.payload payload
      | Error _ -> false)

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame: full-stack roundtrip for any payload"
    ~count:300
    (QCheck.make bytes_gen)
    (fun payload ->
      match Frame.dissect_udp (Frame.build_udp info payload) with
      | Ok (_, p) -> Bytes.equal p payload
      | Error _ -> false)

let mac_gen =
  QCheck.Gen.(
    map
      (fun n -> Addr.Mac.of_repr (Printf.sprintf "02:00:00:00:%02x:%02x"
                                    (n lsr 8) (n land 0xff)))
      (0 -- 0xffff))

let ip_gen =
  QCheck.Gen.(
    map
      (fun n -> Addr.Ip.of_repr (Printf.sprintf "10.0.%d.%d" (n lsr 8) (n land 0xff)))
      (0 -- 0xffff))

let prop_eth_roundtrip =
  QCheck.Test.make ~name:"eth: build/parse roundtrip for any header" ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair (pair mac_gen mac_gen) (pair (0 -- 0xffff) bytes_gen)))
    (fun ((dst, src), (ety, payload)) ->
      let ethertype = Eth.ethertype_of_int ety in
      match Eth.parse (Eth.build { Eth.dst; src; ethertype; payload }) with
      | Ok e ->
          Addr.Mac.equal e.dst dst && Addr.Mac.equal e.src src
          && e.ethertype = ethertype
          && Bytes.equal e.payload payload
      | Error _ -> false)

let prop_arp_roundtrip =
  QCheck.Test.make ~name:"arp: build/parse roundtrip for any addresses"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair (pair mac_gen mac_gen) (pair (pair ip_gen ip_gen) bool)))
    (fun ((sender_mac, target_mac), ((sender_ip, target_ip), is_req)) ->
      let pkt =
        { Arp.op = (if is_req then Arp.Request else Arp.Reply);
          sender_mac; sender_ip; target_mac; target_ip }
      in
      match Arp.parse (Arp.build pkt) with
      | Ok p ->
          p.op = pkt.op
          && Addr.Mac.equal p.sender_mac sender_mac
          && Addr.Mac.equal p.target_mac target_mac
          && Addr.Ip.equal p.sender_ip sender_ip
          && Addr.Ip.equal p.target_ip target_ip
      | Error _ -> false)

let prop_ipv4_fragment_roundtrip =
  QCheck.Test.make
    ~name:"ipv4: build_fragment/parse_fragment roundtrip for any geometry"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair
           (pair (0 -- 1000) bool)
           (pair (pair (1 -- 255) (0 -- 0xffff)) bytes_gen)))
    (fun ((off8, more), ((ttl, ident), payload)) ->
      let frag_offset = off8 * 8 in
      let pkt = { Ipv4.src = ip; dst = ip2; proto = Ipv4.Udp; ttl; ident; payload } in
      match Ipv4.parse_fragment (Ipv4.build_fragment pkt ~frag_offset ~more) with
      | Ok f ->
          f.frag_offset = frag_offset && f.more = more
          && Addr.Ip.equal f.packet.src ip
          && Addr.Ip.equal f.packet.dst ip2
          && f.packet.proto = Ipv4.Udp && f.packet.ttl = ttl
          && f.packet.ident = ident
          && Bytes.equal f.packet.payload payload
      | Error _ -> false)

let prop_parsers_total =
  QCheck.Test.make ~name:"parsers: total on arbitrary bytes" ~count:2000
    (QCheck.make bytes_gen)
    (fun b ->
      (match Eth.parse b with Ok _ | Error _ -> ());
      let len = Bytes.length b in
      (match Eth.check b ~off:0 ~len with Ok _ | Error _ -> ());
      (match Ipv4.check b ~off:0 ~len with Ok _ | Error _ -> ());
      (match Udp.check ~src:ip ~dst:ip2 b ~off:0 ~len with
      | Ok _ | Error _ -> ());
      (match Frame.check_udp b ~len with Ok _ | Error _ -> ());
      (match Arp.parse b with Ok _ | Error _ -> ());
      (match Ipv4.parse b with Ok _ | Error _ -> ());
      (match Ipv4.parse_fragment b with Ok _ | Error _ -> ());
      (match Udp.parse ~src:ip ~dst:ip2 b with Ok _ | Error _ -> ());
      (match Frame.dissect_udp b with Ok _ | Error _ -> ());
      ignore (Frame.peek_udp_ports b);
      true)

let prop_checksum_word_equals_scalar =
  (* The 64-bit-word ones_sum must agree with the 16-bit reference loop
     for every buffer, offset, length and initial sum — including the
     unaligned offsets and odd tails the rx path produces. *)
  QCheck.Test.make
    ~name:"checksum: word-at-a-time ones_sum == scalar reference" ~count:2000
    (QCheck.make
       QCheck.Gen.(
         pair
           (pair (map Bytes.of_string (string_size (0 -- 300))) (0 -- 300))
           (pair (0 -- 300) (0 -- 0x1ffff)))
    )
    (fun ((b, off), (len, init)) ->
      let n = Bytes.length b in
      let off = if n = 0 then 0 else off mod n in
      let len = min len (n - off) in
      Checksum.ones_sum ~init b off len
      = Checksum.ones_sum_scalar ~init b off len)

let prop_checksum_detects_single_flip =
  QCheck.Test.make
    ~name:"checksum: any single-bit flip in an even-sized buffer is caught"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair (map Bytes.of_string (string_size (2 -- 64))) (0 -- 1000)))
    (fun (b, pos) ->
      let b = if Bytes.length b mod 2 = 1 then Bytes.cat b (Bytes.make 1 'x') else b in
      let with_cksum = Bytes.cat b (Bytes.make 2 '\000') in
      let n = Bytes.length with_cksum in
      Bytes.set_uint16_be with_cksum (n - 2) (Checksum.compute with_cksum 0 n);
      let i = pos mod (n - 2) in
      Bytes.set with_cksum i (Char.chr (Char.code (Bytes.get with_cksum i) lxor 1));
      not (Checksum.valid with_cksum 0 n))

let prop_checksum_incremental_chaining =
  (* Summing a prefix and feeding the folded result through [~init] for
     the suffix must equal the one-shot sum — the incremental pattern
     the tx path uses (header sum chained into the payload sum).  The
     split point must be even: RFC 1071's trailing-byte pad only applies
     at the true end of the data. *)
  QCheck.Test.make ~name:"checksum: incremental ~init chaining == one-shot"
    ~count:2000
    (QCheck.make
       QCheck.Gen.(pair (map Bytes.of_string (string_size (0 -- 300))) (0 -- 300)))
    (fun (b, split) ->
      let n = Bytes.length b in
      let k = min n split land lnot 1 in
      Checksum.ones_sum ~init:(Checksum.ones_sum b 0 k) b k (n - k)
      = Checksum.ones_sum b 0 n)

let prop_checksum_odd_pad_equivalence =
  (* An odd-length buffer sums exactly as if zero-padded to even length
     (RFC 1071's virtual trailing zero byte). *)
  QCheck.Test.make ~name:"checksum: odd length == explicit zero pad"
    ~count:1000
    (QCheck.make QCheck.Gen.(map Bytes.of_string (string_size (1 -- 129))))
    (fun b ->
      let b = if Bytes.length b mod 2 = 0 then Bytes.sub b 0 (Bytes.length b - 1) else b in
      let n = Bytes.length b in
      let padded = Bytes.cat b (Bytes.make 1 '\000') in
      Checksum.compute b 0 n = Checksum.compute padded 0 (n + 1)
      && Checksum.ones_sum b 0 n = Checksum.ones_sum padded 0 (n + 1))

let prop_checksum_carries_fold =
  (* Both implementations fold end-around carries completely: any bytes
     and any (even absurdly large) initial sum give a 16-bit result, and
     embedding [compute]'s output makes the region verify. *)
  QCheck.Test.make ~name:"checksum: carries fold to 16 bits, compute/valid roundtrip"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(
         pair (map Bytes.of_string (string_size (0 -- 200))) (0 -- 0xFFFFFF)))
    (fun (b, init) ->
      let n = Bytes.length b in
      let s = Checksum.ones_sum ~init b 0 n in
      let s' = Checksum.ones_sum_scalar ~init b 0 n in
      (* The embedded field must sit at an even offset (as in every real
         header): pad odd buffers before appending it. *)
      let b = if n mod 2 = 1 then Bytes.cat b (Bytes.make 1 '\000') else b in
      let n' = Bytes.length b in
      let with_cksum = Bytes.cat b (Bytes.make 2 '\000') in
      Bytes.set_uint16_be with_cksum n' (Checksum.compute with_cksum 0 (n' + 2));
      s = s' && s >= 0 && s < 0x10000
      && Checksum.finish s < 0x10000
      && Checksum.valid with_cksum 0 (n' + 2))

let props =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Flake.rand ()))
    [
      prop_udp_roundtrip;
      prop_frame_roundtrip;
      prop_eth_roundtrip;
      prop_arp_roundtrip;
      prop_ipv4_fragment_roundtrip;
      prop_parsers_total;
      prop_checksum_word_equals_scalar;
      prop_checksum_detects_single_flip;
      prop_checksum_incremental_chaining;
      prop_checksum_odd_pad_equivalence;
      prop_checksum_carries_fold;
    ]

(* {1 One-copy codec: the in-place checkers and the one-buffer builder
   against the layered record codecs} *)

let ident_of frame = Bytes.get_uint16_be frame (Eth.header_size + 4)

let prop_build_udp_is_layered_build =
  QCheck.Test.make
    ~name:"frame: build_udp is byte-identical to the layered build"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         quad mac_gen ip_gen (1 -- 0xffff)
           (map Bytes.of_string (string_size (0 -- Udp.max_payload)))))
    (fun (src_mac, src_ip, src_port, payload) ->
      let info =
        { Frame.src_mac; dst_mac = mac; src_ip; dst_ip = ip; src_port;
          dst_port = 5201 }
      in
      let frame = Frame.build_udp info payload in
      let ident = ident_of frame in
      let layered =
        Eth.build
          {
            Eth.dst = mac;
            src = src_mac;
            ethertype = Ipv4;
            payload =
              Ipv4.build
                {
                  Ipv4.src = src_ip;
                  dst = ip;
                  proto = Udp;
                  ttl = 64;
                  ident;
                  payload =
                    Udp.build ~src:src_ip ~dst:ip
                      { Udp.src_port; dst_port = 5201; payload };
                };
          }
      in
      (* The ident sequence advances by one per frame, as it always has. *)
      Bytes.equal frame layered
      && ident_of (Frame.build_udp info payload) = (ident + 1) land 0xffff)

(* The UDP checksum rule as a copy: zero the stored field of a copy,
   recompute, compare.  [None] accepts. *)
let copy_zero_recompute ~src ~dst b =
  let len = Bytes.get_uint16_be b 4 and stored = Bytes.get_uint16_be b 6 in
  if stored = 0 then None
  else
    let copy = Bytes.sub b 0 len in
    Bytes.set_uint16_be copy 6 0;
    let init =
      Checksum.pseudo_header_sum ~src:(Addr.Ip.to_int src)
        ~dst:(Addr.Ip.to_int dst) ~proto:17 ~len
    in
    let c = Checksum.finish (Checksum.ones_sum ~init copy 0 len) in
    let expected = if c = 0 then 0xffff else c in
    if expected = stored then None else Some (expected, stored)

(* A payload whose first word is chosen so that the datagram's computed
   checksum is 0 — transmitted as 0xffff (RFC 768). *)
let force_computed_zero ~src ~dst ~sp ~dp payload =
  Bytes.set_uint16_be payload 0 0;
  let d = Udp.build ~src ~dst { Udp.src_port = sp; dst_port = dp; payload } in
  Bytes.set_uint16_be d 6 0;
  let s =
    Checksum.ones_sum
      ~init:
        (Checksum.pseudo_header_sum ~src:(Addr.Ip.to_int src)
           ~dst:(Addr.Ip.to_int dst) ~proto:17 ~len:(Bytes.length d))
      d 0 (Bytes.length d)
  in
  Bytes.set_uint16_be payload 0 (if s = 0xffff then 0 else 0xffff - s)

let prop_udp_checksum_in_place_matches_copy =
  QCheck.Test.make
    ~name:"udp: in-place checksum verdict equals copy-zero-recompute"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(
         pair
           (quad ip_gen ip_gen (1 -- 0xffff) (1 -- 0xffff))
           (quad
              (map Bytes.of_string (string_size (2 -- 300)))
              (oneofl [ `Zero; `Ffff; `Correct; `Plus1; `Minus1; `Random ])
              (0 -- 0xffff) (pair bool (0 -- 40)))))
    (fun ((src, dst, sp, dp), (payload, stored, r, (zero_sum, pad))) ->
      if zero_sum then force_computed_zero ~src ~dst ~sp ~dp payload;
      let d =
        Udp.build ~src ~dst { Udp.src_port = sp; dst_port = dp; payload }
      in
      let correct = Bytes.get_uint16_be d 6 in
      Bytes.set_uint16_be d 6
        (match stored with
        | `Zero -> 0
        | `Ffff -> 0xffff
        | `Correct -> correct
        | `Plus1 -> (correct + 1) land 0xffff
        | `Minus1 -> (correct - 1) land 0xffff
        | `Random -> r);
      (* Checked in place inside a larger buffer, junk on both sides. *)
      let b = Bytes.make (Bytes.length d + (2 * pad)) '\xa5' in
      Bytes.blit d 0 b pad (Bytes.length d);
      let verdict = function
        | Ok _ -> None
        | Error (Udp.Bad_checksum (e, s)) -> Some (e, s)
        | Error _ -> Some (-1, -1)
      in
      let in_place =
        verdict (Udp.check ~src ~dst b ~off:pad ~len:(Bytes.length d))
      in
      (not zero_sum || correct = 0xffff)
      && in_place = copy_zero_recompute ~src ~dst d
      && verdict (Udp.parse ~src ~dst d) = in_place)

let in_place_props =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Flake.rand ()))
    [ prop_build_udp_is_layered_build; prop_udp_checksum_in_place_matches_copy ]

let suite =
  [
    ("mac: repr roundtrip", `Quick, test_mac_repr);
    ("mac: broadcast", `Quick, test_mac_broadcast);
    ("mac: bad inputs rejected", `Quick, test_mac_bad_repr);
    ("ip: repr roundtrip", `Quick, test_ip_repr);
    ("ip: bad inputs rejected", `Quick, test_ip_bad_repr);
    ("checksum: RFC 1071 example", `Quick, test_checksum_rfc1071_example);
    ("checksum: odd length padded", `Quick, test_checksum_odd_length);
    ("checksum: self-verification", `Quick, test_checksum_self_verifies);
    ("eth: roundtrip", `Quick, test_eth_roundtrip);
    ("eth: truncated", `Quick, test_eth_truncated);
    ("eth: ethertype codes", `Quick, test_eth_ethertype_codes);
    ("arp: roundtrip", `Quick, test_arp_roundtrip);
    ("arp: bad fields rejected", `Quick, test_arp_bad_fields);
    ("arp: truncated", `Quick, test_arp_truncated);
    ("ipv4: roundtrip", `Quick, test_ipv4_roundtrip);
    ("ipv4: checksum detects corruption", `Quick,
     test_ipv4_checksum_detects_corruption);
    ("ipv4: bad version", `Quick, test_ipv4_bad_version);
    ("ipv4: options rejected", `Quick, test_ipv4_options_rejected);
    ("ipv4: total length bounds", `Quick, test_ipv4_total_length_bounds);
    ("ipv4: payload trimmed to total length", `Quick,
     test_ipv4_payload_trimmed_to_total);
    ("ipv4: fragments rejected", `Quick, test_ipv4_fragment_rejected);
    ("ipv4: ttl zero rejected", `Quick, test_ipv4_ttl_zero);
    ("udp: roundtrip", `Quick, test_udp_roundtrip);
    ("udp: pseudo-header coverage", `Quick,
     test_udp_checksum_covers_pseudo_header);
    ("udp: payload corruption detected", `Quick, test_udp_corrupt_payload);
    ("udp: zero checksum accepted", `Quick, test_udp_zero_checksum_accepted);
    ("udp: port zero rejected", `Quick, test_udp_port_zero_rejected);
    ("udp: length field bounds", `Quick, test_udp_length_field_bounds);
    ("frame: roundtrip", `Quick, test_frame_roundtrip);
    ("frame: header overhead", `Quick, test_frame_overhead);
    ("frame: port peek", `Quick, test_frame_peek_ports);
    ("frame: dissect rejects non-UDP", `Quick, test_frame_dissect_rejects_arp);
  ]
  @ props @ in_place_props
