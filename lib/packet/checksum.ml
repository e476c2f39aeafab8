let fold_carry sum =
  let rec go s = if s > 0xffff then go ((s land 0xffff) + (s lsr 16)) else s in
  go sum

let ones_sum_scalar ?(init = 0) b off len =
  let sum = ref init in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    sum := !sum + Bytes.get_uint16_be b !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Bytes.get_uint8 b !i lsl 8);
  fold_carry !sum

(* One's-complement arithmetic is mod 0xffff and 2^16 = 1 (mod 0xffff),
   so a big-endian 64-bit word contributes the same as its four 16-bit
   fields; summing its two 32-bit halves keeps every intermediate below
   2^33 and the accumulator within OCaml's native int for any
   realistic length.  8x fewer loads than the scalar loop. *)
let ones_sum ?(init = 0) b off len =
  let sum = ref init in
  let i = ref off in
  let stop = off + len in
  while stop - !i >= 8 do
    let w = Bytes.get_int64_be b !i in
    sum :=
      !sum
      + Int64.to_int (Int64.shift_right_logical w 32)
      + Int64.to_int (Int64.logand w 0xFFFFFFFFL);
    i := !i + 8
  done;
  while !i + 1 < stop do
    sum := !sum + Bytes.get_uint16_be b !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Bytes.get_uint8 b !i lsl 8);
  fold_carry !sum

let finish sum = lnot (fold_carry sum) land 0xffff

let compute b off len = finish (ones_sum b off len)

let valid b off len = fold_carry (ones_sum b off len) = 0xffff

(* The field's two bytes are skipped rather than zeroed; [field] is even,
   so both halves keep the RFC's 16-bit pairing. *)
let sum_around b off len ~field =
  fold_carry
    (ones_sum b off field + ones_sum b (off + field + 2) (len - field - 2))

let pseudo_header_sum ~src ~dst ~proto ~len =
  fold_carry
    ((src lsr 16) + (src land 0xffff)
    + (dst lsr 16)
    + (dst land 0xffff)
    + proto + len)
