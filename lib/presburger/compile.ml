let pad coeffs arity =
  Array.init arity (fun i -> if i < Array.length coeffs then coeffs.(i) else 0)

let const_protocol ~arity b =
  Population.make
    ~name:(if b then "const-true" else "const-false")
    ~states:[| (if b then "yes" else "no") |]
    ~transitions:[ (0, 0, 0, 0) ]
    ~inputs:(List.init arity (fun i -> (Printf.sprintf "x%d" i, 0)))
    ~output:[| b |] ()

(* Majority x_i > x_j embedded into [arity] variables: the +1 variable
   feeds active A, the -1 variable active B, all others the passive b
   (which cannot influence the A-vs-B comparison). *)
let majority_protocol ~arity ~plus ~minus =
  let states = [| "A"; "B"; "a"; "b" |] in
  let transitions =
    [ (0, 1, 2, 3); (0, 3, 0, 2); (1, 2, 1, 3); (2, 3, 3, 3) ]
  in
  let inputs =
    List.init arity (fun i ->
        let target = if i = plus then 0 else if i = minus then 1 else 3 in
        (Printf.sprintf "x%d" i, target))
  in
  Population.make
    ~name:(Printf.sprintf "majority-x%d-x%d" plus minus)
    ~states ~transitions ~inputs
    ~output:[| true; false; true; false |]
    ()
  |> Population.complete

(* Recognise the strict-majority shape: one +1, one -1, zeros, c = 1. *)
let majority_shape coeffs c =
  if c <> 1 then None
  else begin
    let plus = ref [] and minus = ref [] and bad = ref false in
    Array.iteri
      (fun i a ->
        if a = 1 then plus := i :: !plus
        else if a = -1 then minus := i :: !minus
        else if a <> 0 then bad := true)
      coeffs;
    match (!bad, !plus, !minus) with
    | false, [ i ], [ j ] -> Some (i, j)
    | _ -> None
  end

let rec go ~arity pred =
  match pred with
  | Predicate.Const b -> Ok (const_protocol ~arity b)
  | Predicate.Threshold (coeffs, c) -> threshold ~arity (pad coeffs arity) c
  | Predicate.Modulo (coeffs, r, m) ->
    if m < 1 then Error "modulus must be positive"
    else Ok (General_modulo.protocol ~coeffs:(pad coeffs arity) ~r:(((r mod m) + m) mod m) ~m)
  | Predicate.Not p ->
    Result.map Transform.complement (go ~arity p)
  | Predicate.And (p1, p2) -> boolean ~arity ( && ) "and" p1 p2
  | Predicate.Or (p1, p2) -> boolean ~arity ( || ) "or" p1 p2

and threshold ~arity coeffs c =
  if Array.for_all (fun a -> a >= 0) coeffs then
    if c <= 0 then Ok (const_protocol ~arity true)
    else Ok (General_threshold.protocol ~coeffs ~c)
  else if Array.for_all (fun a -> a <= 0) coeffs then
    (* Σ a·x >= c  <=>  ¬(Σ (-a)·x >= -c + 1) *)
    go ~arity
      (Predicate.Not (Predicate.Threshold (Array.map (fun a -> -a) coeffs, -c + 1)))
  else begin
    match majority_shape coeffs c with
    | Some (plus, minus) -> Ok (majority_protocol ~arity ~plus ~minus)
    | None ->
      Error
        "mixed-sign threshold outside the supported fragment (only the \
         strict-majority pattern x_i - x_j >= 1 is supported)"
  end

and boolean ~arity f tag p1 p2 =
  match (go ~arity p1, go ~arity p2) with
  | Ok q1, Ok q2 ->
    Ok
      (Product.combine ~f
         ~name:(Printf.sprintf "(%s %s %s)" q1.Population.name tag q2.Population.name)
         q1 q2)
  | (Error _ as e), _ | _, (Error _ as e) -> e

let compile pred =
  let arity = Stdlib.max 1 (Predicate.arity pred) in
  go ~arity pred

let rec states_of pred =
  match pred with
  | Predicate.Const _ -> Some 1
  | Predicate.Threshold (coeffs, c) ->
    if Array.for_all (fun a -> a >= 0) coeffs then
      if c <= 0 then Some 1 else Some (c + 1)
    else if Array.for_all (fun a -> a <= 0) coeffs then
      states_of (Predicate.Threshold (Array.map (fun a -> -a) coeffs, -c + 1))
    else if majority_shape coeffs c <> None then Some 4
    else None
  | Predicate.Modulo (_, _, m) -> if m >= 1 then Some (m + 2) else None
  | Predicate.Not p -> states_of p
  | Predicate.And (p1, p2) | Predicate.Or (p1, p2) ->
    (match (states_of p1, states_of p2) with
     | Some a, Some b -> Some (a * b)
     | _ -> None)

let states_needed = states_of
