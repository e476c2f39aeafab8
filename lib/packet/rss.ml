(* Receive-side scaling: the deterministic Toeplitz hash NICs use to
   pin a flow to one receive queue.  The hash runs over the 12-byte
   UDP/IPv4 4-tuple (src ip, dst ip, src port, dst port) against a
   fixed 40-byte key — the same construction as Microsoft's RSS spec,
   which real AF_XDP deployments rely on so that one XSK bound to one
   queue sees every packet of "its" flows and none of anyone else's.

   The tuple is canonicalized (lower endpoint first) before hashing, so
   the hash is symmetric: both directions of a flow land on the same
   queue.  The enclave runtime exploits this to give flows shard
   affinity — the shard that receives a flow's datagrams is the shard
   whose XSK transmits the replies. *)

(* The de-facto standard 40-byte RSS key (Microsoft's example key, as
   shipped by ixgbe/i40e/mlx5 by default). *)
let key =
  [|
    0x6d; 0x5a; 0x56; 0xda; 0x25; 0x5b; 0x0e; 0xc2;
    0x41; 0x67; 0x25; 0x3d; 0x43; 0xa3; 0x8f; 0xb0;
    0xd0; 0xca; 0x2b; 0xcb; 0xae; 0x7b; 0x30; 0xb4;
    0x77; 0xcb; 0x2d; 0xa3; 0x80; 0x30; 0xf2; 0x0c;
    0x6a; 0x42; 0xb7; 0x3b; 0xbe; 0xac; 0x01; 0xfa;
  |]

(* 32-bit window of the key starting at bit [bit]. *)
let window bit =
  let byte = bit / 8 and shift = bit mod 8 in
  let b i = if i < Array.length key then key.(i) else 0 in
  let w40 =
    (b byte lsl 32)
    lor (b (byte + 1) lsl 24)
    lor (b (byte + 2) lsl 16)
    lor (b (byte + 3) lsl 8)
    lor b (byte + 4)
  in
  (w40 lsr (8 - shift)) land 0xffffffff

(* Every window the 96-bit tuple can select, computed once: the hash
   runs on every frame a multi-queue NIC steers. *)
let key_windows = Array.init 96 window

let fold_byte acc ~bit v =
  let acc = ref acc in
  for i = 0 to 7 do
    if v land (0x80 lsr i) <> 0 then acc := !acc lxor key_windows.(bit + i)
  done;
  !acc

(* Toeplitz over the canonicalized 12-byte tuple, most significant
   byte first.  Endpoints are ordered by (ip, port) so
   hash(a->b) = hash(b->a). *)
let fold_u32 acc ~bit v =
  let acc = fold_byte acc ~bit ((v lsr 24) land 0xff) in
  let acc = fold_byte acc ~bit:(bit + 8) ((v lsr 16) land 0xff) in
  let acc = fold_byte acc ~bit:(bit + 16) ((v lsr 8) land 0xff) in
  fold_byte acc ~bit:(bit + 24) (v land 0xff)

let fold_u16 acc ~bit v =
  let acc = fold_byte acc ~bit ((v lsr 8) land 0xff) in
  fold_byte acc ~bit:(bit + 8) (v land 0xff)

let hash ~src_ip ~dst_ip ~src_port ~dst_port =
  let src_lo = src_ip < dst_ip || (src_ip = dst_ip && src_port <= dst_port) in
  let lo_ip = if src_lo then src_ip else dst_ip
  and hi_ip = if src_lo then dst_ip else src_ip
  and lo_port = if src_lo then src_port else dst_port
  and hi_port = if src_lo then dst_port else src_port in
  let acc = fold_u32 0 ~bit:0 lo_ip in
  let acc = fold_u32 acc ~bit:32 hi_ip in
  let acc = fold_u16 acc ~bit:64 lo_port in
  fold_u16 acc ~bit:80 hi_port land 0xffffffff

(* Queue selection: hash through a mod-[queues] indirection, as the
   simulated NIC has no 128-entry indirection table to program. *)
let queue ~queues ~src_ip ~dst_ip ~src_port ~dst_port =
  if queues <= 1 then 0
  else hash ~src_ip ~dst_ip ~src_port ~dst_port mod queues
