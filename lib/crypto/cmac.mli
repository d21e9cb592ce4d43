(** CMAC (OMAC1) over AES-128, per RFC 4493 / Iwata-Kurosawa "OMAC: One-Key
    CBC MAC" — the MAC construction the paper's prototype uses
    ("AES-CBC-OMAC", producing a 128-bit code). *)

type key
(** A CMAC key: the expanded AES key, the two derived subkeys, and reusable
    scratch buffers for the MAC computations (derive a key once per kernel
    and reuse it; [of_raw] is the only allocation point). *)

val of_raw : string -> key
(** [of_raw raw] derives a CMAC key from a 16-byte raw AES key.
    @raise Invalid_argument if [raw] is not 16 bytes. *)

val mac : key -> string -> string
(** [mac k msg] returns the 16-byte CMAC tag of [msg] (any length,
    including empty). *)

val mac_bytes : key -> bytes -> pos:int -> len:int -> string
(** [mac_bytes k b ~pos ~len] MACs the slice [b.[pos .. pos+len-1]]. *)

val mac_block_into : key -> bytes -> dst:bytes -> unit
(** [mac_block_into k b ~dst] writes the 16-byte CMAC tag of the single
    complete block [b.[0..15]] into [dst.[0..15]] without allocating. A
    complete block is its own final block, so the tag is
    [AES(b xor k1)] — one AES invocation. Always equal to [mac k] of the
    same 16 bytes; this is the amortized per-call step of the checker's
    lbMAC nonce chain.
    @raise Invalid_argument if [b] or [dst] is shorter than 16 bytes. *)

val equal_tags : string -> string -> bool
(** Constant-time comparison of two 16-byte tags. Returns [false] when
    lengths differ. *)

val equal_tags_bytes : bytes -> bytes -> bool
(** {!equal_tags} over scratch buffers (no string conversion on the
    comparison path). *)

val tag_len : int
(** Length of a tag in bytes (16). *)
