let instr_cost (i : Isa.instr) =
  match i with
  | Isa.Halt | Isa.Nop -> 1
  | Isa.Movi _ | Isa.Mov _ | Isa.Addi _ -> 1
  | Isa.Ld _ | Isa.Ldb _ | Isa.St _ | Isa.Stb _ -> 3
  | Isa.Binop (op, _, _, _) ->
    (match op with
     | Isa.Mul -> 3
     | Isa.Div | Isa.Mod -> 12
     | Isa.Add | Isa.Sub | Isa.And | Isa.Or | Isa.Xor | Isa.Shl | Isa.Shr
     | Isa.Slt | Isa.Sle | Isa.Seq | Isa.Sne -> 1)
  | Isa.Br _ -> 2
  | Isa.Jmp _ | Isa.Jr _ -> 2
  | Isa.Call _ | Isa.Callr _ | Isa.Ret -> 4
  | Isa.Push _ | Isa.Pop _ -> 3
  | Isa.Sys -> 0 (* the kernel charges trap costs itself *)
  | Isa.Rdcyc _ -> 84

let rdcyc_cost = 84
let trap_entry = 900
let syscall_dispatch = 180
let per_byte_copy = 3
let per_byte_copy_denom = 2
let write_buffer_per_byte = 8
let aes_block = 280
let mac_setup = 150
let check_fixed = 250
let context_switch = 2600

let vcache_hit_base = 60
let vcache_hit_per_block = 4

let precomp_lookup_cost = 30
let precomp_hit_per_block = 4

let cfpre_lookup_cost = 8
let cfpre_hit_per_block = 2

let lbmac_chain_cost = aes_block

let telemetry_record_cost = 10

let mac_cost len = mac_setup + (aes_block * ((len + 16) / 16))
let copy_cost len = len * per_byte_copy / per_byte_copy_denom
let vcache_hit_cost len = vcache_hit_base + (vcache_hit_per_block * ((len + 16) / 16))
let precomp_hit_cost slen = precomp_lookup_cost + (precomp_hit_per_block * ((slen + 16) / 16))
let cfpre_hit_cost len = cfpre_lookup_cost + (cfpre_hit_per_block * ((len + 16) / 16))
