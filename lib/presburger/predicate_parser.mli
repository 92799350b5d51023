(** A small concrete syntax for {!Predicate} formulas, so predicates can
    be passed on the command line and compiled with {!Compile}.

    Grammar (usual precedence: [!] > [&&] > [||]):
    {v
    formula  ::= 'true' | 'false'
               | linear '>=' int | linear '<=' int
               | linear '>' int  | linear '<' int
               | linear '==' int 'mod' int
               | '!' formula | formula '&&' formula | formula '||' formula
               | '(' formula ')'
    linear   ::= term (('+' | '-') term)*
    term     ::= int | [int '*'] var
    var      ::= 'x' digits
    v}

    An integer literal that does not fit an OCaml [int], or a variable
    index above 65535, is a parse error naming the literal.

    Examples: ["x0 >= 7"], ["x0 - x1 >= 1 && x0 + x1 >= 4"],
    ["2*x0 + x1 == 1 mod 3 || !(x0 < 5)"]. *)

val parse : string -> (Predicate.t, string) result
(** Non-[>=] comparisons are normalised: [l <= c] to [¬(l >= c+1)],
    [l > c] to [l >= c+1], [l < c] to [¬(l >= c)]. *)
