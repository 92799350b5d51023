type token =
  | INT of int
  | VAR of int
  | PLUS
  | MINUS
  | STAR
  | GE
  | LE
  | GT
  | LT
  | EQ
  | MOD
  | NOT
  | AND
  | OR
  | LPAREN
  | RPAREN
  | TRUE
  | FALSE

exception Error of string

(* Variable indices size the coefficient array, so they are capped well
   below anything that could exhaust memory. *)
let max_var = 65_535

(* Digit runs that do not fit an OCaml [int] are parse errors, not
   [int_of_string] failures. *)
let int_literal lit =
  match int_of_string_opt lit with
  | Some k -> k
  | None -> raise (Error (Printf.sprintf "integer literal %s out of range" lit))

let tokenize s =
  let n = String.length s in
  let tokens = ref [] in
  let push t = tokens := t :: !tokens in
  let i = ref 0 in
  let peek k = if !i + k < n then Some s.[!i + k] else None in
  while !i < n do
    let c = s.[!i] in
    (match c with
     | ' ' | '\t' | '\n' -> incr i
     | '+' -> push PLUS; incr i
     | '-' -> push MINUS; incr i
     | '*' -> push STAR; incr i
     | '(' -> push LPAREN; incr i
     | ')' -> push RPAREN; incr i
     | '!' -> push NOT; incr i
     | '&' ->
       if peek 1 = Some '&' then begin push AND; i := !i + 2 end
       else raise (Error "expected &&")
     | '|' ->
       if peek 1 = Some '|' then begin push OR; i := !i + 2 end
       else raise (Error "expected ||")
     | '>' ->
       if peek 1 = Some '=' then begin push GE; i := !i + 2 end
       else begin push GT; incr i end
     | '<' ->
       if peek 1 = Some '=' then begin push LE; i := !i + 2 end
       else begin push LT; incr i end
     | '=' ->
       if peek 1 = Some '=' then begin push EQ; i := !i + 2 end
       else raise (Error "expected ==")
     | '0' .. '9' ->
       let j = ref !i in
       while !j < n && match s.[!j] with '0' .. '9' -> true | _ -> false do incr j done;
       push (INT (int_literal (String.sub s !i (!j - !i))));
       i := !j
     | 'x' when (match peek 1 with Some ('0' .. '9') -> true | _ -> false) ->
       let j = ref (!i + 1) in
       while !j < n && match s.[!j] with '0' .. '9' -> true | _ -> false do incr j done;
       let lit = String.sub s (!i + 1) (!j - !i - 1) in
       (match int_of_string_opt lit with
        | Some v when v <= max_var -> push (VAR v)
        | _ ->
          raise (Error (Printf.sprintf "variable index x%s out of range" lit)));
       i := !j
     | 'a' .. 'z' ->
       let j = ref !i in
       while !j < n && match s.[!j] with 'a' .. 'z' -> true | _ -> false do incr j done;
       let word = String.sub s !i (!j - !i) in
       (match word with
        | "mod" -> push MOD
        | "true" -> push TRUE
        | "false" -> push FALSE
        | w -> raise (Error (Printf.sprintf "unknown word %S" w)));
       i := !j
     | c -> raise (Error (Printf.sprintf "unexpected character %C" c)))
  done;
  List.rev !tokens

(* A linear combination as (coefficient map over variables). *)
let coeffs_of assoc =
  let max_var = List.fold_left (fun acc (v, _) -> Stdlib.max acc v) 0 assoc in
  let a = Array.make (max_var + 1) 0 in
  List.iter (fun (v, c) -> a.(v) <- a.(v) + c) assoc;
  a

type state = { mutable rest : token list }

let next st = match st.rest with [] -> None | t :: r -> st.rest <- r; Some t
let peek st = match st.rest with [] -> None | t :: _ -> Some t

let expect st t what =
  match next st with
  | Some t' when t' = t -> ()
  | _ -> raise (Error ("expected " ^ what))

(* term ::= int | [int '*'] var | '-'? handled by caller *)
let parse_term st =
  match next st with
  | Some (INT k) ->
    (match peek st with
     | Some STAR ->
       ignore (next st);
       (match next st with
        | Some (VAR v) -> `Var (v, k)
        | _ -> raise (Error "expected variable after *"))
     | _ -> `Const k)
  | Some (VAR v) -> `Var (v, 1)
  | _ -> raise (Error "expected a term")

(* linear ::= term (('+'|'-') term)*  — returns (variable terms, constant) *)
let parse_linear st =
  let vars = ref [] and const = ref 0 in
  let add sign = function
    | `Var (v, c) -> vars := (v, sign * c) :: !vars
    | `Const k -> const := !const + (sign * k)
  in
  add 1 (parse_term st);
  let continue = ref true in
  while !continue do
    match peek st with
    | Some PLUS ->
      ignore (next st);
      add 1 (parse_term st)
    | Some MINUS ->
      ignore (next st);
      add (-1) (parse_term st)
    | _ -> continue := false
  done;
  (!vars, !const)

let parse_int st =
  match next st with
  | Some (INT k) -> k
  | Some MINUS ->
    (match next st with
     | Some (INT k) -> -k
     | _ -> raise (Error "expected an integer"))
  | _ -> raise (Error "expected an integer")

let rec parse_or st =
  let left = parse_and st in
  match peek st with
  | Some OR ->
    ignore (next st);
    Predicate.Or (left, parse_or st)
  | _ -> left

and parse_and st =
  let left = parse_atomic st in
  match peek st with
  | Some AND ->
    ignore (next st);
    Predicate.And (left, parse_and st)
  | _ -> left

and parse_atomic st =
  match peek st with
  | Some NOT ->
    ignore (next st);
    Predicate.Not (parse_atomic st)
  | Some LPAREN ->
    ignore (next st);
    let f = parse_or st in
    expect st RPAREN ")";
    f
  | Some TRUE ->
    ignore (next st);
    Predicate.Const true
  | Some FALSE ->
    ignore (next st);
    Predicate.Const false
  | _ -> parse_comparison st

and parse_comparison st =
  let vars, const = parse_linear st in
  let a = coeffs_of vars in
  match next st with
  | Some GE -> Predicate.Threshold (a, parse_int st - const)
  | Some GT -> Predicate.Threshold (a, parse_int st - const + 1)
  | Some LE -> Predicate.Not (Predicate.Threshold (a, parse_int st - const + 1))
  | Some LT -> Predicate.Not (Predicate.Threshold (a, parse_int st - const))
  | Some EQ ->
    let r = parse_int st in
    expect st MOD "mod";
    let m = parse_int st in
    if m < 1 then raise (Error "modulus must be positive");
    (* Σ a·x + const ≡ r  <=>  Σ a·x ≡ r - const (mod m) *)
    let res = (r - const) mod m in
    Predicate.Modulo (a, (if res < 0 then res + m else res), m)
  | _ -> raise (Error "expected a comparison operator")

let parse s =
  match tokenize s with
  | exception Error e -> Result.Error e
  | tokens ->
    let st = { rest = tokens } in
    (match parse_or st with
     | f -> if st.rest = [] then Ok f else Result.Error "trailing input"
     | exception Error e -> Result.Error e)
