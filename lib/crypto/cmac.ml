type key = {
  aes : Aes.key;
  k1 : bytes;
  k2 : bytes;
  (* per-key scratch reused by [mac_bytes] and [mac_block_into], hoisted
     out of the per-call path so the verification hot path allocates only
     its returned tag. Sound because MAC computations never nest: each one
     runs to completion before the next starts (no concurrency in the
     simulated kernel), and the tag is copied out before returning. *)
  s_x : bytes;
  s_block : bytes;
  s_last : bytes;
}

let tag_len = 16

(* Left shift of a 16-byte block by one bit; XORs in the GF(2^128) reduction
   constant 0x87 when the input block's MSB was set, per RFC 4493. *)
let double block =
  let msb_set = Char.code (Bytes.get block 0) land 0x80 <> 0 in
  let out = Bytes.create 16 in
  let carry = ref 0 in
  for i = 15 downto 0 do
    let b = Char.code (Bytes.get block i) in
    Bytes.set out i (Char.chr (((b lsl 1) lor !carry) land 0xff));
    carry := b lsr 7
  done;
  if msb_set then Bytes.set out 15 (Char.chr (Char.code (Bytes.get out 15) lxor 0x87));
  out

let of_raw raw =
  let aes = Aes.expand raw in
  let zero = Bytes.make 16 '\000' in
  let l = Bytes.create 16 in
  Aes.encrypt_block aes zero ~pos:0 l ~dst_pos:0;
  let k1 = double l in
  let k2 = double k1 in
  { aes; k1; k2; s_x = Bytes.create 16; s_block = Bytes.create 16; s_last = Bytes.create 16 }

let xor_into dst src =
  for i = 0 to 15 do
    Bytes.set dst i (Char.chr (Char.code (Bytes.get dst i) lxor Char.code (Bytes.get src i)))
  done

let mac_bytes key msg ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length msg then
    invalid_arg "Cmac.mac_bytes: slice out of bounds";
  let n_full = len / 16 and rem = len mod 16 in
  (* Number of blocks processed before the (padded or complete) last block. *)
  let head_blocks = if len = 0 then 0 else if rem = 0 then n_full - 1 else n_full in
  let x = key.s_x and block = key.s_block and last = key.s_last in
  Bytes.fill x 0 16 '\000';
  for i = 0 to head_blocks - 1 do
    Bytes.blit msg (pos + (16 * i)) block 0 16;
    xor_into x block;
    Aes.encrypt_block key.aes x ~pos:0 x ~dst_pos:0
  done;
  let complete = len > 0 && rem = 0 in
  if complete then begin
    Bytes.blit msg (pos + (16 * head_blocks)) last 0 16;
    xor_into last key.k1
  end
  else begin
    Bytes.fill last 0 16 '\000';
    let tail = len - (16 * head_blocks) in
    Bytes.blit msg (pos + (16 * head_blocks)) last 0 tail;
    Bytes.set last tail '\x80';
    xor_into last key.k2
  end;
  xor_into x last;
  Aes.encrypt_block key.aes x ~pos:0 x ~dst_pos:0;
  Bytes.to_string x

let mac key msg = mac_bytes key (Bytes.unsafe_of_string msg) ~pos:0 ~len:(String.length msg)

(* CMAC of a single complete 16-byte block, written into [dst] without
   allocating: the message is its own (complete) final block, so the tag is
   AES(M1 xor k1). Equal to [mac] of the same 16 bytes (pinned by the unit
   tests). *)
let mac_block_into key b ~dst =
  if Bytes.length b < 16 then invalid_arg "Cmac.mac_block_into: block must be 16 bytes";
  if Bytes.length dst < 16 then invalid_arg "Cmac.mac_block_into: dst must hold 16 bytes";
  let x = key.s_x in
  Bytes.blit b 0 x 0 16;
  xor_into x key.k1;
  Aes.encrypt_block key.aes x ~pos:0 x ~dst_pos:0;
  Bytes.blit x 0 dst 0 16

let equal_tags a b =
  if String.length a <> String.length b then false
  else begin
    let acc = ref 0 in
    for i = 0 to String.length a - 1 do
      acc := !acc lor (Char.code a.[i] lxor Char.code b.[i])
    done;
    !acc = 0
  end

let equal_tags_bytes a b =
  if Bytes.length a <> Bytes.length b then false
  else begin
    let acc = ref 0 in
    for i = 0 to Bytes.length a - 1 do
      acc := !acc lor (Char.code (Bytes.get a i) lxor Char.code (Bytes.get b i))
    done;
    !acc = 0
  end
