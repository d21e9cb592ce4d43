(* Shared helpers for the command-line tools. *)

open Oskernel

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let personality_of_string = function
  | "linux" -> Ok Personality.linux
  | "openbsd" -> Ok Personality.openbsd
  | s -> Error (Printf.sprintf "unknown OS personality %S (expected linux or openbsd)" s)

(* Load an input program: a SEF binary, or MiniC source (.mc/.c), or a named
   built-in workload (workload:NAME). *)
let load_program ~personality path =
  if String.length path > 9 && String.sub path 0 9 = "workload:" then begin
    let name = String.sub path 9 (String.length path - 9) in
    match Workloads.Registry.by_name ~scale:1 name with
    | Some w -> Ok (Workloads.Registry.compile ~personality w, Some w)
    | None -> Error (Printf.sprintf "unknown workload %S" name)
  end
  else begin
    let contents = try Ok (read_file path) with Sys_error e -> Error e in
    match contents with
    | Error e -> Error e
    | Ok contents ->
      if Filename.check_suffix path ".mc" || Filename.check_suffix path ".c" then
        match Minic.Driver.compile ~personality contents with
        | Ok img -> Ok (img, None)
        | Error e -> Error e
      else
        (match Svm.Obj_file.parse contents with
         | Ok img -> Ok (img, None)
         | Error e -> Error (Printf.sprintf "not a SEF binary (%s)" e))
  end

let key_of_hex hex =
  match Asc_crypto.Hex.decode hex with
  | raw when String.length raw = 16 -> Ok (Asc_crypto.Cmac.of_raw raw)
  | _ -> Error "key must be 32 hex digits (128 bits)"
  | exception Invalid_argument e -> Error e

(* Under enforcement, inputs compiled here (MiniC source, workload:NAME) are
   MAC-installed first so their legitimate calls verify; a SEF binary runs
   as supplied — if it was never asc-installed, its denies are the data. *)
let install_if_compiled ~key ~personality ~input ~workload img =
  let compiled =
    workload <> None || Filename.check_suffix input ".mc" || Filename.check_suffix input ".c"
  in
  if not compiled then Ok img
  else
    match Asc_core.Installer.install ~key ~personality ~program:(Filename.basename input) img with
    | Ok inst -> Ok inst.Asc_core.Installer.image
    | Error e -> Error e

(* The deployment checker's fast-path counters, as its layers and their
   site table publish them in the kernel's metrics registry. *)
let fast_path_stats kernel = Asc_core.Checker.fast_path_counters (Kernel.metrics kernel)

(* One "[precomp: 1 compiles, ..., 12 hits, ...]" line per group on stderr. *)
let print_fast_path_stats kernel =
  List.iter
    (fun (layer, fields) ->
      Format.eprintf "[%s: %s]@." layer
        (String.concat ", "
           (List.map
              (fun (f, n) ->
                Printf.sprintf "%d %s" n (String.map (function '_' -> ' ' | c -> c) f))
              fields)))
    (fast_path_stats kernel)
