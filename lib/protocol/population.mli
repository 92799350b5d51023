(** The population protocol model of Section 2.2: a tuple
    [(Q, T, L, X, I, O)] of states, pairwise transitions, a leader
    multiset, input variables, an input mapping and a binary output
    mapping.

    States are indexed [0 .. num_states - 1]; configurations are
    multisets over state indices ({!Mset.t}). *)

type transition = {
  pre : int * int;   (** the unordered pair [⟨p,q⟩], stored with [p <= q] *)
  post : int * int;  (** the unordered pair [⟨p',q'⟩], stored with [p' <= q'] *)
}

type t = private {
  name : string;
  states : string array;
  transitions : transition array;
  leaders : Mset.t;
  input_vars : string array;
  input_map : int array;  (** [I]: state index for each input variable *)
  output : bool array;    (** [O]: one bit per state *)
  deltas : Intvec.t array;  (** cached displacement of each transition *)
}

val make :
  name:string ->
  states:string array ->
  transitions:(int * int * int * int) list ->
  ?leaders:(int * int) list ->
  inputs:(string * int) list ->
  output:bool array ->
  unit ->
  t
(** [make ~name ~states ~transitions ~inputs ~output ()] builds and
    validates a protocol. Each transition [(p, q, p', q')] denotes
    [p,q ↦ p',q']; pairs are canonicalised, exact duplicates dropped.
    [leaders] lists [(state, count)] pairs; default none.
    @raise Invalid_argument on out-of-range indices, empty [states], no
    input variable, or an [output] array of the wrong length. *)

val rename : t -> string -> t
(** A copy of the protocol under a different name. *)

val num_states : t -> int
val num_transitions : t -> int
val is_leaderless : t -> bool

val is_deterministic : t -> bool
(** At most one transition per unordered pair of pre-states. *)

val missing_pairs : t -> (int * int) list
(** Unordered state pairs with no transition. The paper assumes none;
    see {!complete}. *)

val complete : t -> t
(** Adds the identity transition [p,q ↦ p,q] for every missing pair, so
    that every configuration of size >= 2 enables a transition. *)

val displacement : t -> int -> Intvec.t
(** [displacement p i] is the cached [Δ_t] of transition [i]. *)

val displacement_of_multiset : t -> int array -> Intvec.t
(** [Δ_π] for a Parikh vector [π] over transitions (Section 5.1). *)

val enabled : t -> Mset.t -> int -> bool
(** [enabled p c i]: configuration [c] enables transition [i]. *)

val fire : t -> Mset.t -> int -> Mset.t
(** [fire p c i] fires an enabled transition.
    @raise Invalid_argument if disabled. *)

val fire_opt : t -> Mset.t -> int -> Mset.t option

val successors : t -> Mset.t -> (int * Mset.t) list
(** All [(transition, successor)] pairs enabled at a configuration;
    successors may repeat when distinct transitions coincide. *)

val distinct_successors : t -> Mset.t -> Mset.t list
(** De-duplicated successor configurations. *)

val initial_config : t -> int array -> Mset.t
(** [initial_config p v] is [IC(v) = L + Σ_x v(x)·I(x)].
    @raise Invalid_argument if [v] has the wrong arity or [|IC(v)| < 2]. *)

val initial_single : t -> int -> Mset.t
(** [IC(i)] for single-input protocols (input written [i·x]).
    @raise Invalid_argument if the protocol has several input variables. *)

val output_of_config : t -> Mset.t -> bool option
(** The consensus output [O(C)]: [Some b] if every populated state has
    output [b], [None] otherwise. *)

val state_index : t -> string -> int
(** @raise Not_found if no state has that name. *)

val state_name : t -> int -> string
val pp : Format.formatter -> t -> unit
val pp_config : t -> Format.formatter -> Mset.t -> unit
val pp_transition : t -> Format.formatter -> transition -> unit
