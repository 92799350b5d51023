(* Tests for the Presburger fragment compiler: the general threshold
   and modulo constructions, synchronous products, output complement,
   and compiled protocols checked against Predicate.eval under the
   exact fairness semantics. *)

let grid2 hi =
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b -> if a + b >= 2 then Some [| a; b |] else None)
        (List.init (hi + 1) Fun.id))
    (List.init (hi + 1) Fun.id)

let grid1 lo hi = List.init (hi - lo + 1) (fun i -> [| lo + i |])

let check_against_spec ?(max_configs = 500_000) name pred inputs =
  match Compile.compile pred with
  | Error e -> Alcotest.failf "%s: %s" name e
  | Ok p ->
    (match Fair_semantics.check_predicate ~max_configs p pred ~inputs with
     | Fair_semantics.Ok_all _ -> ()
     | Fair_semantics.Mismatch (v, verdict, expected) ->
       Alcotest.failf "%s: input %s: %a (expected %b)" name
         (String.concat "," (List.map string_of_int (Array.to_list v)))
         Fair_semantics.pp_verdict verdict expected)

(* -- General_threshold ---------------------------------------------------- *)

let test_threshold_basics () =
  let p = General_threshold.protocol ~coeffs:[| 1; 2 |] ~c:5 in
  Alcotest.(check int) "c+1 states" 6 (Population.num_states p);
  Alcotest.(check int) "two inputs" 2 (Array.length p.Population.input_vars);
  Alcotest.check_raises "negative coefficient"
    (Invalid_argument "General_threshold.protocol: negative coefficient") (fun () ->
      ignore (General_threshold.protocol ~coeffs:[| -1 |] ~c:2))

let test_threshold_exact () =
  check_against_spec "x0+2x1>=5" (Predicate.Threshold ([| 1; 2 |], 5)) (grid2 5);
  check_against_spec "3x0>=7" (Predicate.Threshold ([| 3 |], 7)) (grid1 2 6);
  check_against_spec "x0+x1+x2>=4"
    (Predicate.Threshold ([| 1; 1; 1 |], 4))
    [ [| 1; 1; 1 |]; [| 2; 1; 1 |]; [| 0; 2; 2 |]; [| 4; 0; 0 |]; [| 1; 1; 0 |] ]

let test_threshold_large_coefficient () =
  (* a coefficient >= c maps straight to the accepting flag *)
  check_against_spec "5x0+x1>=4" (Predicate.Threshold ([| 5; 1 |], 4)) (grid2 4)

let test_threshold_trivial () =
  check_against_spec "x>=0 is true" (Predicate.Threshold ([| 1 |], 0)) (grid1 2 5)

(* -- General_modulo --------------------------------------------------------- *)

let test_modulo_exact () =
  check_against_spec "x0+2x1 = 1 mod 3"
    (Predicate.Modulo ([| 1; 2 |], 1, 3))
    (grid2 5);
  check_against_spec "negative coefficient mod"
    (Predicate.Modulo ([| 1; -1 |], 0, 2))
    (grid2 5);
  check_against_spec "x = 2 mod 5" (Predicate.Modulo ([| 1 |], 2, 5)) (grid1 2 13)

let test_modulo_states () =
  let p = General_modulo.protocol ~coeffs:[| 1; -1 |] ~r:0 ~m:4 in
  Alcotest.(check int) "m+2 states" 6 (Population.num_states p)

(* -- Product ----------------------------------------------------------------- *)

let test_product_structure () =
  let p1 = General_threshold.protocol ~coeffs:[| 1 |] ~c:3 in
  let p2 = General_modulo.protocol ~coeffs:[| 1 |] ~r:0 ~m:2 in
  let q = Product.combine ~f:( && ) ~name:"conj" p1 p2 in
  Alcotest.(check int) "product states"
    (Population.num_states p1 * Population.num_states p2)
    (Population.num_states q);
  Alcotest.(check (list (pair int int))) "complete" [] (Population.missing_pairs q)

let test_product_requires_same_inputs () =
  let p1 = General_threshold.protocol ~coeffs:[| 1 |] ~c:3 in
  let p2 = General_threshold.protocol ~coeffs:[| 1; 1 |] ~c:3 in
  Alcotest.check_raises "input mismatch"
    (Invalid_argument "Product.combine: input variables must coincide") (fun () ->
      ignore (Product.combine ~f:( && ) ~name:"bad" p1 p2))

let test_product_rejects_leaders () =
  let leaderless = General_threshold.protocol ~coeffs:[| 1 |] ~c:2 in
  let with_leader = Leader_counter.protocol 1 in
  Alcotest.check_raises "leaders rejected"
    (Invalid_argument "Product.combine: leaderless protocols only") (fun () ->
      ignore (Product.combine ~f:( && ) ~name:"bad" with_leader leaderless))

(* -- Transform ------------------------------------------------------------------ *)

let test_complement () =
  let p = General_threshold.protocol ~coeffs:[| 1 |] ~c:4 in
  let q = Transform.complement p in
  List.iter
    (fun i ->
      match (Fair_semantics.decide p [| i |], Fair_semantics.decide q [| i |]) with
      | Fair_semantics.Decides a, Fair_semantics.Decides b ->
        if a = b then Alcotest.failf "complement agrees at %d" i
      | _ -> Alcotest.failf "undecided at %d" i)
    [ 2; 3; 4; 5; 6 ]

let test_restrict_to_coverable () =
  (* glue an unreachable state onto a working protocol *)
  let p =
    Population.complete
      (Population.make ~name:"padded"
         ~states:[| "x"; "y"; "dead" |]
         ~transitions:[ (0, 0, 1, 1); (2, 2, 0, 0) ]
         ~inputs:[ ("x", 0) ]
         ~output:[| false; true; true |] ())
  in
  let q = Transform.restrict_to_coverable p in
  Alcotest.(check int) "dead state dropped" 2 (Population.num_states q);
  (* equivalence on the shared semantics *)
  List.iter
    (fun i ->
      if Fair_semantics.decide p [| i |] <> Fair_semantics.decide q [| i |] then
        Alcotest.failf "restriction changed the verdict at %d" i)
    [ 2; 3; 4; 5 ]

let test_restrict_noop () =
  let p = Flock.succinct 2 in
  Alcotest.(check int) "already minimal" (Population.num_states p)
    (Population.num_states (Transform.restrict_to_coverable p))

let test_relabel () =
  let p = Flock.succinct 1 in
  let q = Transform.relabel p (Printf.sprintf "s%d") in
  Alcotest.(check string) "renamed" "s0" (Population.state_name q 0);
  Alcotest.check_raises "duplicates rejected"
    (Invalid_argument "Transform.relabel: duplicate state name") (fun () ->
      ignore (Transform.relabel p (fun _ -> "same")))

(* -- Compile ----------------------------------------------------------------------- *)

let test_compile_boolean_combos () =
  check_against_spec "conjunction"
    (Predicate.And (Predicate.Threshold ([| 1 |], 3), Predicate.Modulo ([| 1 |], 1, 2)))
    (grid1 2 10);
  check_against_spec "disjunction"
    (Predicate.Or (Predicate.Threshold ([| 1 |], 5), Predicate.Modulo ([| 1 |], 0, 3)))
    (grid1 2 9);
  check_against_spec "negation" (Predicate.Not (Predicate.threshold_single 4)) (grid1 2 8);
  check_against_spec "nested"
    (Predicate.And
       ( Predicate.Not (Predicate.Modulo ([| 1 |], 0, 2)),
         Predicate.Threshold ([| 1 |], 3) ))
    (grid1 2 9)

let test_compile_majority () =
  check_against_spec "majority" (Predicate.majority ()) (grid2 4);
  check_against_spec "swapped majority" (Predicate.Threshold ([| -1; 1 |], 1)) (grid2 4);
  (* majority over three variables: x2 is padding *)
  check_against_spec "padded majority"
    (Predicate.Threshold ([| 1; -1; 0 |], 1))
    [ [| 2; 1; 1 |]; [| 1; 2; 3 |]; [| 2; 2; 1 |]; [| 0; 1; 3 |]; [| 3; 0; 0 |] ]

let test_compile_nonpositive () =
  check_against_spec "-x0-x1 >= -3" (Predicate.Threshold ([| -1; -1 |], -3)) (grid2 4)

let test_compile_const () =
  check_against_spec "const true" (Predicate.Const true) (grid1 2 4);
  check_against_spec "const false" (Predicate.Const false) (grid1 2 4)

let test_compile_unsupported () =
  (match Compile.compile (Predicate.Threshold ([| 2; -3 |], 1)) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "mixed-sign threshold accepted");
  Alcotest.(check bool) "states_needed agrees" true
    (Compile.states_needed (Predicate.Threshold ([| 2; -3 |], 1)) = None)

let test_states_needed () =
  List.iter
    (fun pred ->
      match (Compile.states_needed pred, Compile.compile pred) with
      | Some n, Ok p ->
        Alcotest.(check int)
          (Format.asprintf "%a" Predicate.pp pred)
          n (Population.num_states p)
      | None, Error _ -> ()
      | Some _, Error e -> Alcotest.fail e
      | None, Ok _ -> Alcotest.fail "states_needed missed a supported predicate")
    [
      Predicate.Const true;
      Predicate.Threshold ([| 1; 2 |], 5);
      Predicate.Modulo ([| 1 |], 0, 3);
      Predicate.majority ();
      Predicate.And (Predicate.Threshold ([| 1 |], 3), Predicate.Modulo ([| 1 |], 1, 2));
      Predicate.Not (Predicate.Threshold ([| -1 |], -2));
    ]

(* -- Predicate_parser ----------------------------------------------------------- *)

let test_parser_basics () =
  let ok s pred =
    match Predicate_parser.parse s with
    | Ok p ->
      if p <> pred then
        Alcotest.failf "%s parsed as %s" s (Format.asprintf "%a" Predicate.pp p)
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "x0 >= 7" (Predicate.Threshold ([| 1 |], 7));
  ok "x0 + 2*x1 >= 5" (Predicate.Threshold ([| 1; 2 |], 5));
  ok "x0 - x1 >= 1" (Predicate.Threshold ([| 1; -1 |], 1));
  ok "x0 > 3" (Predicate.Threshold ([| 1 |], 4));
  ok "x0 < 3" (Predicate.Not (Predicate.Threshold ([| 1 |], 3)));
  ok "x0 <= 3" (Predicate.Not (Predicate.Threshold ([| 1 |], 4)));
  ok "x0 == 2 mod 5" (Predicate.Modulo ([| 1 |], 2, 5));
  ok "true" (Predicate.Const true);
  ok "x0 + 1 >= 3" (Predicate.Threshold ([| 1 |], 2))

let test_parser_boolean_structure () =
  match Predicate_parser.parse "!(x0 >= 2) && x1 >= 1 || x0 == 0 mod 2" with
  | Ok (Predicate.Or (Predicate.And (Predicate.Not _, _), Predicate.Modulo _)) -> ()
  | Ok p -> Alcotest.failf "wrong structure: %s" (Format.asprintf "%a" Predicate.pp p)
  | Error e -> Alcotest.fail e

let test_parser_errors () =
  List.iter
    (fun s ->
      match Predicate_parser.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" s)
    [ ""; "x0 >="; "x0 & x1 >= 1"; "x0 >= 2 extra"; "x0 == 1 mod 0"; "y >= 1" ]

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let test_parser_out_of_range () =
  List.iter
    (fun (s, lit) ->
      match Predicate_parser.parse s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error e ->
        if not (contains e lit) then
          Alcotest.failf "%S: error %S does not name %s" s e lit)
    [
      ("x0 >= 99999999999999999999", "99999999999999999999");
      ("99999999999999999999*x0 >= 1", "99999999999999999999");
      ("x0 == 1 mod 99999999999999999999", "99999999999999999999");
      ("x99999999999999999999 >= 1", "x99999999999999999999");
      ("x65536 >= 1", "x65536");
    ];
  (match Predicate_parser.parse "x65535 >= 1" with
   | Ok (Predicate.Threshold (a, 1)) ->
     Alcotest.(check int) "the largest variable index parses" 65536
       (Array.length a)
   | _ -> Alcotest.fail "x65535 >= 1 should parse");
  (* the residue is normalised without overflowing next to max_int *)
  match Predicate_parser.parse "x0 == 5 mod 4611686018427387903" with
  | Ok (Predicate.Modulo (_, r, m)) ->
    Alcotest.(check (pair int int))
      "residue of the largest modulus" (5, max_int) (r, m)
  | _ -> Alcotest.fail "the largest modulus should parse"

let test_parser_semantics_agree () =
  (* parsed predicates evaluate like hand-built ones on a grid *)
  List.iter
    (fun (s, f) ->
      match Predicate_parser.parse s with
      | Error e -> Alcotest.failf "%s: %s" s e
      | Ok pred ->
        List.iter
          (fun (a, b) ->
            let v = [| a; b |] in
            if Predicate.eval pred v <> f a b then
              Alcotest.failf "%s disagrees at (%d,%d)" s a b)
          [ (0, 0); (1, 2); (3, 1); (5, 5); (2, 7) ])
    [
      ("x0 + x1 >= 4", fun a b -> a + b >= 4);
      ("x0 - 2*x1 < 0", fun a b -> a - (2 * b) < 0);
      ("x0 == 1 mod 2 || x1 == 0 mod 3", fun a b -> a mod 2 = 1 || b mod 3 = 0);
      ("!(x0 - x1 >= 1)", fun a b -> not (a - b >= 1));
    ]

(* random predicates from the supported fragment vs direct evaluation *)
let arb_fragment =
  let open QCheck.Gen in
  let atom =
    frequency
      [
        (3, map2 (fun a c -> Predicate.Threshold ([| a; abs a mod 3 |], c))
             (int_range 0 3) (int_range 0 5));
        (3, map2 (fun a r -> Predicate.Modulo ([| a; 1 |], r mod 3, 3))
             (int_range (-2) 2) (int_range 0 2));
        (1, return (Predicate.majority ()));
      ]
  in
  let combo =
    atom >>= fun p1 ->
    atom >>= fun p2 ->
    oneofl
      [ p1; Predicate.Not p1; Predicate.And (p1, p2); Predicate.Or (p1, p2) ]
  in
  QCheck.make ~print:(Format.asprintf "%a" Predicate.pp) combo

let compile_random_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random fragment predicates compile correctly" ~count:25
       arb_fragment
       (fun pred ->
         match Compile.compile pred with
         | Error _ -> QCheck.assume_fail ()
         | Ok p ->
           List.for_all
             (fun v ->
               match Fair_semantics.decide ~max_configs:400_000 p v with
               | Fair_semantics.Decides b -> b = Predicate.eval pred v
               | _ -> false)
             [ [| 2; 0 |]; [| 1; 1 |]; [| 3; 2 |]; [| 0; 4 |]; [| 5; 1 |] ]))

let () =
  Alcotest.run "presburger"
    [
      ( "general-threshold",
        [
          Alcotest.test_case "basics" `Quick test_threshold_basics;
          Alcotest.test_case "exact" `Quick test_threshold_exact;
          Alcotest.test_case "large coefficient" `Quick test_threshold_large_coefficient;
          Alcotest.test_case "trivial" `Quick test_threshold_trivial;
        ] );
      ( "general-modulo",
        [
          Alcotest.test_case "exact" `Quick test_modulo_exact;
          Alcotest.test_case "states" `Quick test_modulo_states;
        ] );
      ( "product",
        [
          Alcotest.test_case "structure" `Quick test_product_structure;
          Alcotest.test_case "input mismatch" `Quick test_product_requires_same_inputs;
          Alcotest.test_case "leaders" `Quick test_product_rejects_leaders;
        ] );
      ( "transform",
        [
          Alcotest.test_case "complement" `Quick test_complement;
          Alcotest.test_case "restrict" `Quick test_restrict_to_coverable;
          Alcotest.test_case "restrict noop" `Quick test_restrict_noop;
          Alcotest.test_case "relabel" `Quick test_relabel;
        ] );
      ( "parser",
        [
          Alcotest.test_case "basics" `Quick test_parser_basics;
          Alcotest.test_case "boolean structure" `Quick test_parser_boolean_structure;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "out-of-range literals" `Quick
            test_parser_out_of_range;
          Alcotest.test_case "semantics" `Quick test_parser_semantics_agree;
        ]
        @ Fuzz_gen.properties ~decoder:"parse"
            ~vocab:
              [ "x0"; "x1"; "x65535"; "x65536"; "x99999999999999999999"; "0";
                "7"; "99999999999999999999"; "4611686018427387903"; "+"; "-";
                "*"; ">="; "<="; ">"; "<"; "=="; "="; "mod"; "!"; "&&"; "&";
                "||"; "|"; "("; ")"; "true"; "false"; "y"; " " ]
            Predicate_parser.parse );
      ( "compile",
        [
          Alcotest.test_case "boolean combinations" `Quick test_compile_boolean_combos;
          Alcotest.test_case "majority" `Quick test_compile_majority;
          Alcotest.test_case "nonpositive" `Quick test_compile_nonpositive;
          Alcotest.test_case "constants" `Quick test_compile_const;
          Alcotest.test_case "unsupported" `Quick test_compile_unsupported;
          Alcotest.test_case "states_needed" `Quick test_states_needed;
          compile_random_prop;
        ] );
    ]
