(* Tests for the Diophantine-system layer and the Contejean–Devie
   Hilbert-basis solver, including brute-force completeness checks and
   the Pottier norm bound (Theorem 5.6). *)

let prop name ?(count = 50) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let sys rows ~num_vars = Diophantine.make (Array.of_list (List.map Array.of_list rows)) ~num_vars

(* -- Diophantine ---------------------------------------------------------- *)

let test_eval () =
  let s = sys [ [ 1; -2; 0 ]; [ 0; 1; 1 ] ] ~num_vars:3 in
  Alcotest.(check (array int)) "A·y" [| -3; 3 |] (Diophantine.eval s [| 1; 2; 1 |]);
  Alcotest.(check bool) "solution geq" false (Diophantine.is_solution_geq s [| 1; 2; 1 |]);
  Alcotest.(check bool) "solution eq" true
    (Diophantine.is_solution_eq s [| 0; 0; 0 |]);
  Alcotest.check_raises "arity" (Invalid_argument "Diophantine.eval: arity mismatch")
    (fun () -> ignore (Diophantine.eval s [| 1 |]))

let test_pottier_bound_value () =
  let s = sys [ [ 1; -1 ] ] ~num_vars:2 in
  (* (1 + 2)^1 = 3 *)
  Alcotest.(check string) "bound" "3" (Bignat.to_string (Diophantine.pottier_bound s))

(* -- solve_eq ------------------------------------------------------------- *)

let test_eq_simple () =
  let s = sys [ [ 1; -1 ] ] ~num_vars:2 in
  Alcotest.(check (list (array int))) "x=y basis" [ [| 1; 1 |] ]
    (Hilbert_basis.solve_eq s)

let test_eq_ratio () =
  let s = sys [ [ 2; -3 ] ] ~num_vars:2 in
  Alcotest.(check (list (array int))) "2x=3y" [ [| 3; 2 |] ] (Hilbert_basis.solve_eq s)

let test_eq_two_constraints () =
  (* x1 = x2 and x2 = x3: basis {(1,1,1)} *)
  let s = sys [ [ 1; -1; 0 ]; [ 0; 1; -1 ] ] ~num_vars:3 in
  Alcotest.(check (list (array int))) "chain" [ [| 1; 1; 1 |] ] (Hilbert_basis.solve_eq s)

let test_eq_classic () =
  (* x + y = z + w: four minimal solutions *)
  let s = sys [ [ 1; 1; -1; -1 ] ] ~num_vars:4 in
  let basis = Hilbert_basis.solve_eq s in
  Alcotest.(check int) "four elements" 4 (List.length basis);
  Alcotest.(check bool) "verified minimal" true
    (Hilbert_basis.verify_minimal s ~eq:true basis)

let test_eq_infeasible_positive () =
  (* x1 + x2 = -x3 - ... no: take x + 1y with all positive coefficients:
     only the zero solution exists, so the basis is empty *)
  let s = sys [ [ 1; 2 ] ] ~num_vars:2 in
  Alcotest.(check (list (array int))) "empty basis" [] (Hilbert_basis.solve_eq s)

let test_scalar_criterion_ablation () =
  (* with the criterion the search terminates instantly; without it the
     frontier keeps growing along non-decreasing directions and the
     budget must stop it *)
  let s = sys [ [ 1; -1 ] ] ~num_vars:2 in
  Alcotest.(check (list (array int))) "criterion finds the basis" [ [| 1; 1 |] ]
    (Hilbert_basis.solve_eq s);
  Alcotest.(check bool) "no criterion diverges into the budget" true
    (match Hilbert_basis.solve_eq ~scalar_criterion:false ~max_candidates:2000 s with
     | _ -> false
     | exception Obs.Budget.Exceeded _ -> true)

let test_eq_budget () =
  let s = sys [ [ 1; -1 ] ] ~num_vars:2 in
  (* the typed budget exception must identify the source, report how
     much was consumed, and carry a sound partial basis *)
  match Hilbert_basis.solve_eq ~scalar_criterion:false ~max_candidates:1 s with
  | _ -> Alcotest.fail "budget of 1 candidate not enforced"
  | exception Obs.Budget.Exceeded info ->
    Alcotest.(check string) "source" "hilbert.solve_eq" info.Obs.Budget.source;
    Alcotest.(check string) "resource" "candidates" info.Obs.Budget.resource;
    Alcotest.(check bool) "consumed over limit" true
      (List.assoc "candidates" info.Obs.Budget.consumed
       > info.Obs.Budget.limit);
    (match info.Obs.Budget.partial with
     | Hilbert_basis.Partial_basis partial ->
       Alcotest.(check bool) "partial elements are solutions" true
         (List.for_all (Diophantine.is_solution_eq s) partial)
     | _ -> Alcotest.fail "expected Partial_basis in the budget exception")

(* brute-force minimal solutions for small systems *)
let brute_minimal_eq s ~bound =
  let v = s.Diophantine.num_vars in
  let sols = ref [] in
  let y = Array.make v 0 in
  let rec go i =
    if i = v then begin
      if Array.exists (fun x -> x > 0) y && Diophantine.is_solution_eq s y then
        sols := Array.copy y :: !sols
    end
    else
      for x = 0 to bound do
        y.(i) <- x;
        go (i + 1)
      done
  in
  go 0;
  let leq a b = Array.for_all2 (fun x y -> x <= y) a b in
  List.filter
    (fun a -> not (List.exists (fun b -> b <> a && leq b a) !sols))
    !sols
  |> List.sort_uniq Stdlib.compare

let arb_small_system =
  QCheck.make
    ~print:(fun (rows, v) ->
      Printf.sprintf "%d vars: %s" v
        (String.concat " | "
           (List.map
              (fun r -> String.concat "," (List.map string_of_int (Array.to_list r)))
              rows)))
    QCheck.Gen.(
      int_range 2 3 >>= fun v ->
      list_size (int_range 1 2) (array_size (return v) (int_range (-2) 2)) >|= fun rows ->
      (rows, v))

let eq_completeness_prop =
  prop "solve_eq complete vs brute force" ~count:60 arb_small_system
    (fun (rows, v) ->
      let s = Diophantine.make (Array.of_list rows) ~num_vars:v in
      let computed = List.sort_uniq Stdlib.compare (Hilbert_basis.solve_eq s) in
      (* brute-force bound: Pottier's norm bound caps minimal solutions *)
      let bound =
        Stdlib.min 12 (Option.value (Bignat.to_int_opt (Diophantine.pottier_bound s)) ~default:12)
      in
      let brute =
        List.filter
          (fun a -> Array.for_all (fun x -> x <= bound) a)
          (brute_minimal_eq s ~bound)
      in
      (* every brute-force minimal solution within the bound must appear *)
      List.for_all (fun b -> List.mem b computed) brute
      && Hilbert_basis.verify_minimal s ~eq:true computed)

(* -- solve_geq ------------------------------------------------------------- *)

let test_geq_simple () =
  let s = sys [ [ 1; -1 ] ] ~num_vars:2 in
  Alcotest.(check (list (array int))) "x>=y" [ [| 1; 0 |]; [| 1; 1 |] ]
    (List.sort Stdlib.compare (Hilbert_basis.solve_geq s))

let test_geq_generation () =
  let s = sys [ [ 2; -3 ]; [ -1; 1 ] ] ~num_vars:2 in
  let basis = Hilbert_basis.solve_geq s in
  (* pick a few solutions and decompose them over the basis *)
  List.iter
    (fun y ->
      if Diophantine.is_solution_geq s y then begin
        match Hilbert_basis.decompose_geq s ~basis y with
        | Some parts ->
          let total = Array.make 2 0 in
          List.iter (Array.iteri (fun i x -> total.(i) <- total.(i) + x)) parts;
          Alcotest.(check (array int)) "decomposition sums" y total
        | None -> Alcotest.failf "no decomposition for a solution"
      end)
    [ [| 3; 2 |]; [| 6; 4 |]; [| 9; 8 |]; [| 30; 20 |] ]

let test_decompose_eq () =
  let s = sys [ [ 1; -1 ] ] ~num_vars:2 in
  let basis = Hilbert_basis.solve_eq s in
  (match Hilbert_basis.decompose_eq s ~basis [| 4; 4 |] with
   | Some parts -> Alcotest.(check int) "four parts" 4 (List.length parts)
   | None -> Alcotest.fail "decomposition failed");
  Alcotest.(check bool) "non-solution rejected" true
    (Hilbert_basis.decompose_eq s ~basis [| 2; 1 |] = None)

let geq_soundness_prop =
  prop "solve_geq returns solutions within Pottier's bound" ~count:40
    arb_small_system (fun (rows, v) ->
      let s = Diophantine.make (Array.of_list rows) ~num_vars:v in
      let basis = Hilbert_basis.solve_geq s in
      let bound = Diophantine.pottier_bound s in
      List.for_all
        (fun y ->
          Diophantine.is_solution_geq s y
          && Bignat.compare
               (Bignat.of_int (Array.fold_left ( + ) 0 y))
               bound
             <= 0)
        basis)

let geq_generation_prop =
  prop "every small geq solution decomposes over the basis" ~count:40
    arb_small_system (fun (rows, v) ->
      let s = Diophantine.make (Array.of_list rows) ~num_vars:v in
      let basis = Hilbert_basis.solve_geq s in
      (* enumerate solutions with coordinates <= 4 and decompose them *)
      let y = Array.make v 0 in
      let ok = ref true in
      let rec go i =
        if i = v then begin
          if Diophantine.is_solution_geq s y then
            match Hilbert_basis.decompose_geq s ~basis (Array.copy y) with
            | Some _ -> ()
            | None -> ok := false
        end
        else
          for x = 0 to 4 do
            y.(i) <- x;
            go (i + 1)
          done
      in
      go 0;
      !ok)

(* -- differential oracle ------------------------------------------------- *)

(* [Hilbert_oracle.solve_eq] is the completion before the (coordinate,
   value) domination index and the full-vector duplicate table: the
   basis, every [hilbert.*] counter and a budget trip's payload must be
   equal (both complete in chunks of 16, and the pool's
   [hilbert.chunks] counts rounds' chunks). Per-domain chunk counts ([hilbert.domainN.chunks])
   depend on scheduling, so they are left out. *)
type run = {
  outcome : (int array list, int array list * (string * float) list) result;
  counters : (string * int) list;
}

let hilbert_counters diff =
  List.filter_map
    (fun (name, v) ->
      match v with
      | Obs.Metrics.Counter n
        when String.starts_with ~prefix:"hilbert." name
             && not (String.starts_with ~prefix:"hilbert.domain" name) ->
        Some (name, n)
      | _ -> None)
    diff

let observe solve =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) (fun () ->
      let before = Obs.Metrics.snapshot ~process:false () in
      let outcome =
        match solve () with
        | basis -> Ok basis
        | exception Obs.Budget.Exceeded info -> (
          match info.Obs.Budget.partial with
          | Hilbert_basis.Partial_basis partial ->
            Error (partial, info.Obs.Budget.consumed)
          | _ -> Error ([], []))
      in
      let after = Obs.Metrics.snapshot ~process:false () in
      { outcome; counters = hilbert_counters (Obs.Metrics.diff ~before ~after) })

let same_as_oracle ?(jobs = [ 1 ]) ?scalar_criterion ~max_candidates s =
  let reference =
    observe (fun () -> Hilbert_oracle.solve_eq ?scalar_criterion ~max_candidates s)
  in
  List.for_all
    (fun jobs ->
      observe (fun () ->
          Hilbert_basis.solve_eq ~jobs ?scalar_criterion ~max_candidates s)
      = reference)
    jobs

(* 2–14 variables, so vectors also differ past the tenth coordinate *)
let arb_wide_system =
  QCheck.make
    ~print:(fun (rows, v) ->
      Printf.sprintf "%d vars: %s" v
        (String.concat " | "
           (List.map
              (fun r -> String.concat "," (List.map string_of_int (Array.to_list r)))
              rows)))
    QCheck.Gen.(
      int_range 2 14 >>= fun v ->
      list_size (int_range 1 3) (array_size (return v) (int_range (-3) 3))
      >|= fun rows -> (rows, v))

let oracle_random_prop =
  prop "random systems: basis and counters = oracle" ~count:60
    arb_wide_system (fun (rows, v) ->
      same_as_oracle ~max_candidates:20_000
        (Diophantine.make (Array.of_list rows) ~num_vars:v))

(* without the criterion the search diverges; a small budget trips it
   in the middle of a round's slots *)
let oracle_trip_prop =
  prop "criterion off: budget trip = oracle" ~count:60
    QCheck.(pair arb_wide_system (int_range 1 400))
    (fun ((rows, v), max_candidates) ->
      same_as_oracle ~jobs:[ 1; 2 ] ~scalar_criterion:false ~max_candidates
        (Diophantine.make (Array.of_list rows) ~num_vars:v))

let oracle_protocol_prop =
  prop "3-state protocols: lifted system = oracle at jobs 1, 2" ~count:25
    QCheck.(int_bound 10_000)
    (fun seed ->
      let p =
        Protocol_gen.generate
          ~config:{ Protocol_gen.default with Protocol_gen.num_states = 3 }
          ~seed ()
      in
      same_as_oracle ~jobs:[ 1; 2 ] ~max_candidates:50_000
        (Hilbert_oracle.lift (Potential.system p)))

(* coordinates 62 and 63 share the top mask bit: x_0 - x_1 + x_2 - ...
   has the 1,024 pairs (even, odd) as basis, and without the criterion
   the level-3 extensions are tested against them until the budget
   trips mid-round *)
let test_oracle_lumped_mask () =
  let s =
    Diophantine.make
      [| Array.init 64 (fun i -> if i mod 2 = 0 then 1 else -1) |]
      ~num_vars:64
  in
  Alcotest.(check bool) "criterion on" true
    (same_as_oracle ~max_candidates:5_000 s);
  Alcotest.(check bool) "criterion off, budget trip" true
    (same_as_oracle ~jobs:[ 1; 2 ] ~scalar_criterion:false
       ~max_candidates:2_400 s)

let () =
  Alcotest.run "hilbert"
    [
      ( "diophantine",
        [
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "pottier bound" `Quick test_pottier_bound_value;
        ] );
      ( "solve-eq",
        [
          Alcotest.test_case "simple" `Quick test_eq_simple;
          Alcotest.test_case "ratio" `Quick test_eq_ratio;
          Alcotest.test_case "two constraints" `Quick test_eq_two_constraints;
          Alcotest.test_case "classic 4-var" `Quick test_eq_classic;
          Alcotest.test_case "positive-only" `Quick test_eq_infeasible_positive;
          Alcotest.test_case "budget" `Quick test_eq_budget;
          Alcotest.test_case "scalar criterion ablation" `Quick test_scalar_criterion_ablation;
          eq_completeness_prop;
        ] );
      ( "solve-geq",
        [
          Alcotest.test_case "simple" `Quick test_geq_simple;
          Alcotest.test_case "generation" `Quick test_geq_generation;
          Alcotest.test_case "decompose eq" `Quick test_decompose_eq;
          geq_soundness_prop;
          geq_generation_prop;
        ] );
      ( "oracle",
        [
          oracle_random_prop;
          oracle_trip_prop;
          oracle_protocol_prop;
          Alcotest.test_case "64 variables: lumped mask bit = oracle" `Quick
            test_oracle_lumped_mask;
        ] );
    ]
