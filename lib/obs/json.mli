(** A minimal JSON tree, printer and parser — just enough for metric
    snapshots, trace events and the bench result file, so the
    observability layer needs no external JSON dependency.

    Printing and parsing round-trip: [parse (to_string j) = Ok j] for
    every tree free of non-finite floats (which JSON cannot represent;
    they are printed as [null]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. Floats with integral values keep a
    [".0"] suffix so the integer/float distinction survives a
    round-trip; other floats print with 17 significant digits. *)

val parse : string -> (t, string) result
(** Strict parser for the subset [to_string] emits plus insignificant
    whitespace. Numbers containing [.], [e] or [E] parse as [Float],
    all others as [Int]. *)

(** Typed readers for the records this repo writes and reads back:
    wire frames, checkpoint ledgers, bench runs, metric snapshots,
    trace files and event logs.

    Every error names what failed: [missing field "k"],
    [field "k": expected an int], and a nested error keeps its path
    ([field "chunks": item 3: missing field "index"]). Members a
    decoder does not ask for are ignored. *)
module Decode : sig
  type 'a decoder = t -> ('a, string) result

  val ( let* ) :
    ('a, string) result -> ('a -> ('b, string) result) -> ('b, string) result
  (** [Result.bind], to sequence the fields of a record. *)

  val int : int decoder
  val number : float decoder
  (** A [Float], or an [Int] widened: integral floats may arrive as
      ints. *)

  val string : string decoder
  val bool : bool decoder
  val list : 'a decoder -> 'a list decoder
  val pair : 'a decoder -> 'b decoder -> ('a * 'b) decoder

  val field : string -> 'a decoder -> 'a decoder
  (** [field name d] decodes the member [name] of an object with [d];
      an absent member is an error. *)

  val field_opt : string -> 'a decoder -> 'a option decoder
  (** [None] when the member is absent or [null]. *)

  val field_or : string -> 'a decoder -> default:'a -> t -> 'a
  (** [default] when the member is absent or does not decode. Only for
      display-only readers (trace and event-log reports, the pptop
      header), which show what a damaged file still holds; a value
      that feeds a computation is read with {!field} or {!field_opt}. *)

  val schema : string -> unit decoder
  (** The ["schema"] member must equal this string; any other is
      [unknown schema "..."]. *)
end
