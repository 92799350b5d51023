(** Homogeneous systems of linear Diophantine constraints [A·y = 0] or
    [A·y >= 0] over natural-number unknowns, and Pottier's small-basis
    bound for them (Theorem 5.6 of the paper).

    The solution sets are commutative monoids; their unique minimal
    generating sets (Hilbert bases) are computed by {!Hilbert_basis}. *)

type t = private {
  rows : int array array;  (** one row of coefficients per constraint *)
  num_vars : int;
}

val make : int array array -> num_vars:int -> t
(** @raise Invalid_argument if a row has the wrong arity. *)

val num_constraints : t -> int

val eval : t -> int array -> int array
(** [eval sys y] is the vector [A·y]. *)

val is_solution_eq : t -> int array -> bool
(** [A·y = 0] with [y >= 0]. *)

val is_solution_geq : t -> int array -> bool
(** [A·y >= 0] with [y >= 0]. *)

val pottier_bound : t -> Bignat.t
(** Theorem 5.6: every element [m] of some basis of [A·y >= 0]
    satisfies [‖m‖₁ <= (1 + max_i Σ_j |a_ij|)^e], [e] the number of
    constraints. *)
