type fault =
  | Bad_opcode of int
  | Bad_address of int
  | Div_by_zero

type stop =
  | Halted of int
  | Faulted of fault * int
  | Killed of string
  | Cycle_limit

type t = {
  mem : Bytes.t;
  regs : int array;
  mutable pc : int;
  mutable cycles : int;
  mutable instrs : int;
  mutable stopped : stop option;
  mutable profile : Asc_obs.Profile.t option;
}

type sys_action =
  | Sys_continue
  | Sys_kill of string

let default_mem_size = 4 * 1024 * 1024

let create ~mem_size =
  { mem = Bytes.make mem_size '\000';
    regs = Array.make Isa.num_regs 0;
    pc = 0;
    cycles = 0;
    instrs = 0;
    stopped = None;
    profile = None }

let attach_profile ?(alloc = false) t p =
  t.profile <- Some p;
  if alloc then Asc_obs.Profile.track_alloc p

let stack_top t = Bytes.length t.mem - 16

(* [addr + len] would wrap for an address near [max_int]; subtracting from
   the length cannot, once both operands are known non-negative *)
let in_range t addr len = addr >= 0 && len >= 0 && addr <= Bytes.length t.mem - len

let buf_ok buf ~pos ~len = pos >= 0 && len >= 0 && pos <= Bytes.length buf - len

let read_word t addr =
  if in_range t addr 8 then Some (Int64.to_int (Bytes.get_int64_le t.mem addr)) else None

let write_word t addr v =
  if in_range t addr 8 then begin
    Bytes.set_int64_le t.mem addr (Int64.of_int v);
    true
  end
  else false

let read_byte t addr =
  if in_range t addr 1 then Some (Char.code (Bytes.get t.mem addr)) else None

let write_byte t addr v =
  if in_range t addr 1 then begin
    Bytes.set t.mem addr (Char.chr (v land 0xff));
    true
  end
  else false

let read_mem t ~addr ~len =
  if in_range t addr len then Some (Bytes.sub_string t.mem addr len) else None

let write_mem t ~addr s =
  if in_range t addr (String.length s) then begin
    Bytes.blit_string s 0 t.mem addr (String.length s);
    true
  end
  else false

let read_into t ~addr ~buf ~pos ~len =
  if in_range t addr len && buf_ok buf ~pos ~len then begin
    Bytes.blit t.mem addr buf pos len;
    true
  end
  else false

let write_from t ~addr ~buf ~pos ~len =
  if in_range t addr len && buf_ok buf ~pos ~len then begin
    Bytes.blit buf pos t.mem addr len;
    true
  end
  else false

(* a while loop rather than an inner recursive function: this runs on the
   checker's per-trap fast path, where even one closure allocation counts
   against the step's host-allocation budget *)
let mem_equal t ~addr s =
  let len = String.length s in
  in_range t addr len
  && begin
    let i = ref 0 in
    while !i < len && Bytes.get t.mem (addr + !i) = s.[!i] do
      incr i
    done;
    !i = len
  end

(* Allocation-free word accessors: compose the LE word with int
   arithmetic instead of a boxed Int64. [lsl]/[asr] keep the low 63 bits
   exactly as [Int64.to_int]/[Int64.of_int] do, so the values and bytes
   round-trip identically with [read_word]/[write_word]. *)
let word_ok t addr = in_range t addr 8

let word_at t addr =
  if not (in_range t addr 8) then invalid_arg "Machine.word_at: out of range";
  let mem = t.mem in
  Char.code (Bytes.unsafe_get mem addr)
  lor (Char.code (Bytes.unsafe_get mem (addr + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get mem (addr + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get mem (addr + 3)) lsl 24)
  lor (Char.code (Bytes.unsafe_get mem (addr + 4)) lsl 32)
  lor (Char.code (Bytes.unsafe_get mem (addr + 5)) lsl 40)
  lor (Char.code (Bytes.unsafe_get mem (addr + 6)) lsl 48)
  lor (Char.code (Bytes.unsafe_get mem (addr + 7)) lsl 56)

let set_word t addr v =
  if not (in_range t addr 8) then invalid_arg "Machine.set_word: out of range";
  for i = 0 to 7 do
    Bytes.unsafe_set t.mem (addr + i) (Char.unsafe_chr ((v asr (8 * i)) land 0xff))
  done

let read_cstring t ~addr ~max =
  if addr < 0 || addr >= Bytes.length t.mem then None
  else begin
    let limit = min (addr + max) (Bytes.length t.mem) in
    let rec find i = if i >= limit then None else if Bytes.get t.mem i = '\000' then Some i else find (i + 1) in
    match find addr with
    | Some e -> Some (Bytes.sub_string t.mem addr (e - addr))
    | None -> None
  end

exception Fault of fault

let word_or_fault t addr = match read_word t addr with Some v -> v | None -> raise (Fault (Bad_address addr))
let byte_or_fault t addr = match read_byte t addr with Some v -> v | None -> raise (Fault (Bad_address addr))
let store_or_fault t addr v = if not (write_word t addr v) then raise (Fault (Bad_address addr))
let storeb_or_fault t addr v = if not (write_byte t addr v) then raise (Fault (Bad_address addr))

let eval_binop op a b =
  match (op : Isa.binop) with
  | Isa.Add -> a + b
  | Isa.Sub -> a - b
  | Isa.Mul -> a * b
  | Isa.Div -> if b = 0 then raise (Fault Div_by_zero) else a / b
  | Isa.Mod -> if b = 0 then raise (Fault Div_by_zero) else a mod b
  | Isa.And -> a land b
  | Isa.Or -> a lor b
  | Isa.Xor -> a lxor b
  | Isa.Shl -> a lsl (b land 63)
  | Isa.Shr -> a asr (b land 63)
  | Isa.Slt -> if a < b then 1 else 0
  | Isa.Sle -> if a <= b then 1 else 0
  | Isa.Seq -> if a = b then 1 else 0
  | Isa.Sne -> if a <> b then 1 else 0

let eval_cond c a b =
  match (c : Isa.cond) with
  | Isa.Eq -> a = b
  | Isa.Ne -> a <> b
  | Isa.Lt -> a < b
  | Isa.Ge -> a >= b
  | Isa.Le -> a <= b
  | Isa.Gt -> a > b

let run t ~on_sys ~max_cycles =
  let r = t.regs in
  let push v =
    r.(Isa.sp) <- r.(Isa.sp) - 8;
    store_or_fault t r.(Isa.sp) v
  in
  let pop () =
    let v = word_or_fault t r.(Isa.sp) in
    r.(Isa.sp) <- r.(Isa.sp) + 8;
    v
  in
  let rec loop () =
    match t.stopped with
    | Some s -> s
    | None ->
      if t.cycles > max_cycles then begin
        t.stopped <- Some Cycle_limit;
        Cycle_limit
      end
      else begin
        let pc = t.pc in
        (try
           if not (in_range t pc Isa.instr_size) then raise (Fault (Bad_address pc));
           match Isa.decode t.mem ~pos:pc with
           | None -> raise (Fault (Bad_opcode pc))
           | Some i ->
             let cost = Cost_model.instr_cost i in
             t.cycles <- t.cycles + cost;
             t.instrs <- t.instrs + 1;
             (* the instruction's cost belongs to the frame executing it:
                charge before Call pushes / Ret pops the shadow stack *)
             (match t.profile with
              | Some p -> Asc_obs.Profile.charge p cost
              | None -> ());
             t.pc <- pc + Isa.instr_size;
             (match i with
              | Isa.Halt -> t.stopped <- Some (Halted r.(0))
              | Isa.Nop -> ()
              | Isa.Movi (rd, v) -> r.(rd) <- v
              | Isa.Mov (rd, rs) -> r.(rd) <- r.(rs)
              | Isa.Ld (rd, rs, off) -> r.(rd) <- word_or_fault t (r.(rs) + off)
              | Isa.St (rd, off, rs) -> store_or_fault t (r.(rd) + off) r.(rs)
              | Isa.Ldb (rd, rs, off) -> r.(rd) <- byte_or_fault t (r.(rs) + off)
              | Isa.Stb (rd, off, rs) -> storeb_or_fault t (r.(rd) + off) r.(rs)
              | Isa.Binop (op, rd, rs, rt) -> r.(rd) <- eval_binop op r.(rs) r.(rt)
              | Isa.Addi (rd, rs, v) -> r.(rd) <- r.(rs) + v
              | Isa.Br (c, rs, rt, target) -> if eval_cond c r.(rs) r.(rt) then t.pc <- target
              | Isa.Jmp target -> t.pc <- target
              | Isa.Jr rs -> t.pc <- r.(rs)
              | Isa.Call target ->
                push t.pc;
                t.pc <- target;
                (match t.profile with
                 | Some p -> Asc_obs.Profile.enter p (Asc_obs.Profile.Pc target)
                 | None -> ())
              | Isa.Callr rs ->
                push t.pc;
                t.pc <- r.(rs);
                (match t.profile with
                 | Some p -> Asc_obs.Profile.enter p (Asc_obs.Profile.Pc t.pc)
                 | None -> ())
              | Isa.Ret ->
                t.pc <- pop ();
                (match t.profile with
                 | Some p -> Asc_obs.Profile.leave p
                 | None -> ())
              | Isa.Push rs -> push r.(rs)
              | Isa.Pop rd -> r.(rd) <- pop ()
              | Isa.Sys ->
                (match on_sys t with
                 | Sys_continue -> ()
                 | Sys_kill reason -> t.stopped <- Some (Killed reason))
              | Isa.Rdcyc rd -> r.(rd) <- t.cycles)
         with Fault f -> t.stopped <- Some (Faulted (f, pc)));
        loop ()
      end
  in
  loop ()
