(* Tests for the protocol model (Section 2.2): construction, semantics
   of firing, initial configurations, outputs, displacements, and the
   concrete syntax round-trip. *)

let prop name ?(count = 100) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* A tiny 3-state protocol used across the tests:
   states a b c; a,a -> b,c; b,c -> c,c; output 1 on c. *)
let tiny () =
  Population.make ~name:"tiny"
    ~states:[| "a"; "b"; "c" |]
    ~transitions:[ (0, 0, 1, 2); (1, 2, 2, 2) ]
    ~inputs:[ ("x", 0) ]
    ~output:[| false; false; true |]
    ()

let test_make_validation () =
  Alcotest.check_raises "bad transition state"
    (Invalid_argument "Population.make: transition state 5 out of range")
    (fun () ->
      ignore
        (Population.make ~name:"bad" ~states:[| "a" |]
           ~transitions:[ (0, 0, 0, 5) ]
           ~inputs:[ ("x", 0) ]
           ~output:[| false |] ()));
  Alcotest.check_raises "no inputs" (Invalid_argument "Population.make: no input variable")
    (fun () ->
      ignore
        (Population.make ~name:"bad" ~states:[| "a" |] ~transitions:[] ~inputs:[]
           ~output:[| false |] ()))

let test_transition_canonicalisation () =
  let p =
    Population.make ~name:"canon" ~states:[| "a"; "b" |]
      ~transitions:[ (1, 0, 1, 0); (0, 1, 0, 1) ]
      ~inputs:[ ("x", 0) ]
      ~output:[| false; false |] ()
  in
  Alcotest.(check int) "duplicates dropped" 1 (Population.num_transitions p)

let test_fire () =
  let p = tiny () in
  let c = Mset.of_list 3 [ (0, 3) ] in
  Alcotest.(check bool) "t0 enabled" true (Population.enabled p c 0);
  Alcotest.(check bool) "t1 disabled" false (Population.enabled p c 1);
  let c' = Population.fire p c 0 in
  Alcotest.(check int) "a decreased" 1 (Mset.get c' 0);
  Alcotest.(check int) "b appeared" 1 (Mset.get c' 1);
  Alcotest.(check int) "c appeared" 1 (Mset.get c' 2);
  Alcotest.(check int) "size preserved" 3 (Mset.size c');
  Alcotest.check_raises "disabled fire"
    (Invalid_argument "Population.fire: transition disabled") (fun () ->
      ignore (Population.fire p c 1))

let test_self_pair_needs_two () =
  let p = tiny () in
  let c = Mset.of_list 3 [ (0, 1); (1, 1) ] in
  Alcotest.(check bool) "a,a needs two agents in a" false (Population.enabled p c 0)

let test_initial_config () =
  let p = tiny () in
  let ic = Population.initial_single p 5 in
  Alcotest.(check int) "five in input state" 5 (Mset.get ic 0);
  Alcotest.(check int) "size" 5 (Mset.size ic);
  Alcotest.check_raises "too small"
    (Invalid_argument "Population.initial_config: populations have at least 2 agents")
    (fun () -> ignore (Population.initial_single p 1))

let test_initial_with_leaders () =
  let p =
    Population.make ~name:"leader" ~states:[| "x"; "l" |]
      ~transitions:[ (0, 1, 1, 1) ]
      ~leaders:[ (1, 2) ]
      ~inputs:[ ("x", 0) ]
      ~output:[| false; true |] ()
  in
  let ic = Population.initial_single p 3 in
  Alcotest.(check int) "leaders included" 2 (Mset.get ic 1);
  Alcotest.(check int) "size" 5 (Mset.size ic);
  Alcotest.(check bool) "not leaderless" false (Population.is_leaderless p)

let test_output_of_config () =
  let p = tiny () in
  Alcotest.(check (option bool)) "all zero-output" (Some false)
    (Population.output_of_config p (Mset.of_list 3 [ (0, 2); (1, 1) ]));
  Alcotest.(check (option bool)) "all one-output" (Some true)
    (Population.output_of_config p (Mset.of_list 3 [ (2, 4) ]));
  Alcotest.(check (option bool)) "mixed" None
    (Population.output_of_config p (Mset.of_list 3 [ (0, 1); (2, 1) ]))

let test_complete () =
  let p = tiny () in
  Alcotest.(check int) "missing pairs" 4 (List.length (Population.missing_pairs p));
  let p' = Population.complete p in
  Alcotest.(check (list (pair int int))) "none missing" [] (Population.missing_pairs p');
  Alcotest.(check int) "six transitions" 6 (Population.num_transitions p')

let test_displacement () =
  let p = tiny () in
  let d = Population.displacement p 0 in
  Alcotest.(check (list int)) "delta t0" [ -2; 1; 1 ] (Array.to_list d);
  Alcotest.(check int) "deltas conserve agents" 0 (Intvec.sum_coords d);
  let pi = [| 2; 1 |] in
  let dp = Population.displacement_of_multiset p pi in
  Alcotest.(check (list int)) "delta pi" [ -4; 1; 3 ] (Array.to_list dp)

let test_deterministic () =
  Alcotest.(check bool) "tiny deterministic" true (Population.is_deterministic (tiny ()));
  let nondet =
    Population.make ~name:"nd" ~states:[| "a"; "b" |]
      ~transitions:[ (0, 0, 0, 1); (0, 0, 1, 1) ]
      ~inputs:[ ("x", 0) ]
      ~output:[| false; false |] ()
  in
  Alcotest.(check bool) "nondeterministic" false (Population.is_deterministic nondet)

let test_state_lookup () =
  let p = tiny () in
  Alcotest.(check int) "index" 1 (Population.state_index p "b");
  Alcotest.(check string) "name" "c" (Population.state_name p 2);
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Population.state_index p "zz"))

(* -- monotonicity (the property the paper calls "by monotonicity") ------- *)

let arb_context =
  QCheck.make
    ~print:(fun m -> String.concat ";" (List.map string_of_int (Array.to_list (Mset.to_intvec m))))
    QCheck.Gen.(array_size (return 3) (int_bound 4) >|= Mset.of_array)

let monotonicity_prop =
  prop "firing is monotone in the configuration" arb_context (fun ctx ->
      let p = tiny () in
      let c = Mset.of_list 3 [ (0, 2) ] in
      match Population.fire_opt p c 0 with
      | None -> false
      | Some c' ->
        (match Population.fire_opt p (Mset.add c ctx) 0 with
         | None -> false
         | Some c'' -> Mset.equal c'' (Mset.add c' ctx)))

(* -- predicates ---------------------------------------------------------- *)

let test_predicates () =
  let open Predicate in
  Alcotest.(check bool) "threshold true" true (eval (threshold_single 3) [| 5 |]);
  Alcotest.(check bool) "threshold false" false (eval (threshold_single 3) [| 2 |]);
  Alcotest.(check bool) "majority strict" false (eval (majority ()) [| 2; 2 |]);
  Alcotest.(check bool) "majority true" true (eval (majority ()) [| 3; 2 |]);
  Alcotest.(check bool) "modulo" true (eval (Modulo ([| 1 |], 1, 3)) [| 7 |]);
  Alcotest.(check bool) "negative residue normalised" true
    (eval (Modulo ([| -1 |], 2, 3)) [| 7 |]);
  Alcotest.(check bool) "boolean combo" true
    (eval (And (threshold_single 2, Not (threshold_single 10))) [| 5 |]);
  Alcotest.(check int) "arity" 2 (arity (majority ()))

(* -- random generation ---------------------------------------------------- *)

let test_gen_deterministic_repeatable () =
  let p1 = Protocol_gen.generate ~seed:42 () in
  let p2 = Protocol_gen.generate ~seed:42 () in
  Alcotest.(check int) "same transitions" (Population.num_transitions p1)
    (Population.num_transitions p2);
  Alcotest.(check (array bool)) "same outputs" p1.Population.output p2.Population.output;
  let p3 = Protocol_gen.generate ~seed:43 () in
  Alcotest.(check bool) "different seed differs" true
    (p1.Population.output <> p3.Population.output
     || p1.Population.transitions <> p3.Population.transitions)

let test_gen_complete_and_deterministic () =
  for seed = 0 to 30 do
    let p = Protocol_gen.generate ~seed () in
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "seed %d complete" seed)
      [] (Population.missing_pairs p);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d deterministic" seed)
      true (Population.is_deterministic p)
  done

let test_gen_with_leaders () =
  let config = { Protocol_gen.default with Protocol_gen.leaders = 2 } in
  let p = Protocol_gen.generate ~config ~seed:5 () in
  Alcotest.(check int) "two leaders" 2 (Mset.size p.Population.leaders)

let test_gen_nondeterministic () =
  let config =
    { Protocol_gen.default with
      Protocol_gen.deterministic = false;
      Protocol_gen.extra_transitions = 12 }
  in
  let p = Protocol_gen.generate ~config ~seed:9 () in
  Alcotest.(check bool) "has at least the complete set" true
    (Population.num_transitions p >= 10)

(* -- concrete syntax ----------------------------------------------------- *)

let test_syntax_roundtrip () =
  let p = Population.complete (tiny ()) in
  match Protocol_syntax.parse_string (Protocol_syntax.to_string p) with
  | Error e -> Alcotest.fail e
  | Ok p' ->
    Alcotest.(check int) "states" (Population.num_states p) (Population.num_states p');
    Alcotest.(check int) "transitions" (Population.num_transitions p)
      (Population.num_transitions p');
    Alcotest.(check (array bool)) "outputs" p.Population.output p'.Population.output

let test_syntax_errors () =
  (match Protocol_syntax.parse_string "states a\ninput x -> b" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown state accepted");
  (match Protocol_syntax.parse_string "input x -> a" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing states accepted");
  match Protocol_syntax.parse_string "states a b\ninput x -> a\ntrans a b ->" with
  | Error e ->
    Alcotest.(check bool) "line number reported" true
      (String.length e > 0 && e.[0] = 'l')
  | Ok _ -> Alcotest.fail "bad transition accepted"

let test_syntax_leaders () =
  let text =
    "protocol lc\nstates t b0 b1\ninput x -> t\nleader 1 b0\naccept b1\n\
     trans t b0 -> t b1\n"
  in
  match Protocol_syntax.parse_string text with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check int) "leader count" 1 (Mset.size p.Population.leaders);
    Alcotest.(check bool) "accepting" true p.Population.output.(2)

let () =
  Alcotest.run "protocol"
    [
      ( "model",
        [
          Alcotest.test_case "validation" `Quick test_make_validation;
          Alcotest.test_case "canonicalisation" `Quick test_transition_canonicalisation;
          Alcotest.test_case "fire" `Quick test_fire;
          Alcotest.test_case "self pair" `Quick test_self_pair_needs_two;
          Alcotest.test_case "initial config" `Quick test_initial_config;
          Alcotest.test_case "leaders" `Quick test_initial_with_leaders;
          Alcotest.test_case "output" `Quick test_output_of_config;
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "displacement" `Quick test_displacement;
          Alcotest.test_case "determinism" `Quick test_deterministic;
          Alcotest.test_case "state lookup" `Quick test_state_lookup;
          monotonicity_prop;
        ] );
      ("predicates", [ Alcotest.test_case "eval" `Quick test_predicates ]);
      ( "generator",
        [
          Alcotest.test_case "repeatable" `Quick test_gen_deterministic_repeatable;
          Alcotest.test_case "complete+deterministic" `Quick test_gen_complete_and_deterministic;
          Alcotest.test_case "leaders" `Quick test_gen_with_leaders;
          Alcotest.test_case "nondeterministic" `Quick test_gen_nondeterministic;
        ] );
      ( "syntax",
        [
          Alcotest.test_case "round-trip" `Quick test_syntax_roundtrip;
          Alcotest.test_case "errors" `Quick test_syntax_errors;
          Alcotest.test_case "leaders" `Quick test_syntax_leaders;
        ]
        @ Fuzz_gen.properties ~decoder:"parse_string"
            ~vocab:
              [ "protocol"; "states"; "input"; "leader"; "accept"; "trans";
                "->"; "a"; "b"; "x"; "0"; "2"; "-1"; "99999999999999999999";
                "#"; " "; " "; "\t"; "\n"; "\n" ]
            Protocol_syntax.parse_string );
    ]
