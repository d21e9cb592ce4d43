(* Growable int sample buffers and the order statistics the report uses. *)

type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 1024 0; len = 0 }

let add t v =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let of_list l =
  let t = create () in
  List.iter (add t) l;
  t

let length t = t.len

let sorted t =
  let a = Array.sub t.data 0 t.len in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array: the element at 1-based rank
   ceil(p*n/100); 0 when empty. (p*n is exact for whole p, so the rank is
   too; p/100*n can round up past a whole rank.) *)
let rank a p =
  let n = Array.length a in
  if n = 0 then 0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n /. 100.)) - 1)))

let fmedian l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The tail percentile reported next to a median: the highest whole
   percentile whose nearest rank leaves at least ten samples beyond it, and
   never below the median. With fewer than twenty samples no percentile
   above the median qualifies, and the tail is the median. *)
let tail_pct n =
  if n < 20 then 50. else Float.max 50. (float_of_int (100 * (n - 10) / n))

let p50 t = rank (sorted t) 50.

(* (percentile, value, sample count) *)
let tail t =
  let a = sorted t in
  let p = tail_pct (Array.length a) in
  (p, rank a p, Array.length a)
