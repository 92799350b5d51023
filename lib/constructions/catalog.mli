(** A registry of the protocol constructions, with the predicate each
    one is specified to compute. CLI tools and benchmarks look
    protocols up here by name. *)

type entry = {
  name : string;
  description : string;
  spec : Predicate.t;  (** the predicate the protocol claims to compute *)
  build : unit -> Population.t;
}

val default_entries : unit -> entry list
(** A representative finite selection (used by tests and benches). *)

val build : string -> entry option
(** Parses parameterised names: [flock-naive-K], [flock-succinct-K],
    [threshold-unary-N], [threshold-binary-N], [majority], [mod-M-R],
    [leader-counter-K]. *)

val names_help : string
(** One-line description of the accepted name syntax. *)

val load :
  name:string option -> file:string option -> (Population.t, string) result
(** The protocol a tool's [--protocol NAME] or [--file PATH] names:
    the catalog entry's construction, or the parsed [.pp] file. [Error]
    names an unknown catalog name (listing {!names_help}), carries the
    parser's error, or asks for exactly one of the two. *)
