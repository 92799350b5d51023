(* Tests for the exact semantics layer: configuration graphs, SCC
   computation, fairness verdicts and threshold determination. *)

let tiny () =
  (* a,a -> b,c ; b,c -> c,c ; completed with identities; accept c *)
  Population.complete
    (Population.make ~name:"tiny"
       ~states:[| "a"; "b"; "c" |]
       ~transitions:[ (0, 0, 1, 2); (1, 2, 2, 2) ]
       ~inputs:[ ("x", 0) ]
       ~output:[| false; false; true |]
       ())

(* -- Configgraph ---------------------------------------------------------- *)

let test_explore_counts () =
  let p = tiny () in
  let g = Configgraph.explore p (Population.initial_single p 2) in
  (* from 2·a: {2a} -> {b,c} -> {2c} *)
  Alcotest.(check int) "three configurations" 3 (Configgraph.num_configs g);
  Alcotest.(check int) "root" 0 g.Configgraph.root

let test_explore_budget () =
  let p = Flock.succinct 3 in
  Alcotest.check_raises "budget enforced" (Configgraph.Too_many_configs 5) (fun () ->
      ignore (Configgraph.explore ~max_configs:5 p (Population.initial_single p 12)))

let test_find_and_reach () =
  let p = tiny () in
  let g = Configgraph.explore p (Population.initial_single p 2) in
  let target = Mset.of_list 3 [ (2, 2) ] in
  (match Configgraph.find g target with
   | Some _ -> ()
   | None -> Alcotest.fail "all-c configuration not found");
  Alcotest.(check bool) "can_reach consensus" true
    (Configgraph.can_reach g ~src:g.Configgraph.root (fun c ->
         Population.output_of_config p c = Some true))

(* exploration preserves population size *)
let explore_size_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"exploration preserves agent count" ~count:20
       QCheck.(int_range 2 9)
       (fun n ->
         let p = Flock.succinct 2 in
         let g = Configgraph.explore p (Population.initial_single p n) in
         Array.for_all (fun c -> Mset.size c = n) g.Configgraph.configs))

(* -- Packed fast path ------------------------------------------------------ *)

(* the packed exploration is the same graph, index for index *)
let packed_graph_equal p c0 =
  let g = Configgraph.explore p c0 in
  let pg = Configgraph.Packed.explore p c0 in
  Configgraph.num_configs g = Configgraph.Packed.num_configs pg
  && g.Configgraph.root = pg.Configgraph.Packed.root
  && Array.for_all2
       (fun c i -> Mset.equal c (Configgraph.Packed.config pg i))
       g.Configgraph.configs
       (Array.init (Configgraph.Packed.num_configs pg) Fun.id)
  && g.Configgraph.succ = pg.Configgraph.Packed.succ

let test_packed_graph_identical () =
  let p = tiny () in
  Alcotest.(check bool) "tiny" true
    (packed_graph_equal p (Population.initial_single p 4));
  let p = Flock.succinct 2 in
  Alcotest.(check bool) "flock" true
    (packed_graph_equal p (Population.initial_single p 9))

(* every entry point, eager or lazy, on either representation, aborts
   at the node budget and still publishes how far it got *)
let test_packed_budget () =
  let p = Flock.succinct 3 in
  let c0 = Population.initial_single p 12 in
  let on_bottom _ = `Continue in
  let entry_points =
    [
      ("explore", fun () -> ignore (Configgraph.explore ~max_configs:5 p c0));
      ( "explore_sccs",
        fun () -> ignore (Configgraph.explore_sccs ~max_configs:5 p c0 ~on_bottom) );
      ( "Packed.explore",
        fun () -> ignore (Configgraph.Packed.explore ~max_configs:5 p c0) );
      ( "Packed.explore_sccs",
        fun () ->
          ignore (Configgraph.Packed.explore_sccs ~max_configs:5 p c0 ~on_bottom) );
    ]
  in
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () ->
      List.iter
        (fun (name, f) ->
          let before = Obs.Metrics.snapshot () in
          Alcotest.check_raises name (Configgraph.Too_many_configs 5) f;
          let d = Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ()) in
          Alcotest.(check bool)
            (name ^ " publishes configgraph.configs = 5")
            true
            (List.assoc_opt "configgraph.configs" d = Some (Obs.Metrics.Counter 5)))
        entry_points)

let packed_graph_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"packed graph isomorphic to the reference graph" ~count:40
       QCheck.(triple (int_range 0 46655) (int_range 0 7) (int_range 2 8))
       (fun (assignment, output_bits, input) ->
         let p = Busy_beaver.protocol_of_code ~n:3 ~assignment ~output_bits in
         packed_graph_equal p (Population.initial_single p input)))

(* n = 3 instances always take the packed path in Fair_semantics; the
   oracle decides them on the multiset graph *)
let packed_verdict_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"packed and reference verdicts agree" ~count:40
       QCheck.(triple (int_range 0 46655) (int_range 0 7) (int_range 2 8))
       (fun (assignment, output_bits, input) ->
         let p = Busy_beaver.protocol_of_code ~n:3 ~assignment ~output_bits in
         Fair_semantics.decide p [| input |]
         = Verdict_oracle.verdict p [| input |]))

(* the lazy pair: same SCC count, same bottom components in the same
   order, packed members unpacked *)
let packed_sccs_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"packed lazy SCCs equal the reference lazy SCCs" ~count:500
       QCheck.(triple (int_range 0 46655) (int_range 0 7) (int_range 2 12))
       (fun (assignment, output_bits, input) ->
         let p = Busy_beaver.protocol_of_code ~n:3 ~assignment ~output_bits in
         let c0 = Population.initial_single p input in
         let collect explore_sccs =
           let bottoms = ref [] in
           let n =
             explore_sccs ~on_bottom:(fun members ->
                 bottoms := members :: !bottoms;
                 `Continue)
           in
           (n, List.rev !bottoms)
         in
         let n, bottoms = collect (Configgraph.explore_sccs p c0) in
         let n', packed = collect (Configgraph.Packed.explore_sccs p c0) in
         let dim = Population.num_states p in
         n = n'
         && List.equal (List.equal Mset.equal) bottoms
              (List.map (List.map (Mset.unpack ~dim)) packed)))

(* -- Scc ------------------------------------------------------------------ *)

let test_scc_line () =
  (* 0 -> 1 -> 2: three singleton components, only the last is bottom *)
  let succ = [| [| 1 |]; [| 2 |]; [||] |] in
  let scc = Scc.compute succ in
  Alcotest.(check int) "three components" 3 scc.Scc.num_components;
  Alcotest.(check (list int)) "one bottom" [ scc.Scc.component.(2) ]
    (Scc.bottom_components scc)

let test_scc_cycle () =
  let succ = [| [| 1 |]; [| 0; 2 |]; [||] |] in
  let scc = Scc.compute succ in
  Alcotest.(check int) "cycle collapses" 2 scc.Scc.num_components;
  Alcotest.(check bool) "cycle not bottom" true
    (not scc.Scc.is_bottom.(scc.Scc.component.(0)));
  Alcotest.(check bool) "sink bottom" true scc.Scc.is_bottom.(scc.Scc.component.(2))

let test_scc_two_bottoms () =
  let succ = [| [| 1; 2 |]; [||]; [||] |] in
  let scc = Scc.compute succ in
  Alcotest.(check int) "two bottoms" 2 (List.length (Scc.bottom_components scc))

let test_scc_self_loop_graph () =
  (* strongly connected pair *)
  let succ = [| [| 1 |]; [| 0 |] |] in
  let scc = Scc.compute succ in
  Alcotest.(check int) "single component" 1 scc.Scc.num_components;
  Alcotest.(check bool) "it is bottom" true scc.Scc.is_bottom.(0)

(* members partition the nodes *)
let scc_partition_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"SCC members partition nodes" ~count:100
       QCheck.(pair (int_range 1 12) (list_of_size (QCheck.Gen.return 30) (pair small_nat small_nat)))
       (fun (n, edges) ->
         let succ = Array.make n [] in
         List.iter
           (fun (u, v) ->
             let u = u mod n and v = v mod n in
             if u <> v then succ.(u) <- v :: succ.(u))
           edges;
         let succ = Array.map Array.of_list succ in
         let scc = Scc.compute succ in
         let total =
           Array.fold_left (fun acc ms -> acc + List.length ms) 0 scc.Scc.members
         in
         total = n
         && Array.for_all
              (fun ms -> List.for_all (fun v -> List.mem v scc.Scc.members.(scc.Scc.component.(v))) ms)
              scc.Scc.members))

(* -- Fair_semantics ------------------------------------------------------- *)

let test_decide_tiny () =
  let p = tiny () in
  (* 2 agents: a,a -> b,c -> c,c: accepts *)
  (match Fair_semantics.decide p [| 2 |] with
   | Fair_semantics.Decides true -> ()
   | v -> Alcotest.failf "expected accept: %a" Fair_semantics.pp_verdict v);
  (* 3 agents: one a remains inert beside c's: never a consensus... the
     third a can still pair with nothing productive; a,a impossible, so
     the two converted agents end as c and a stays: mixed forever *)
  match Fair_semantics.decide p [| 3 |] with
  | Fair_semantics.Decides _ -> Alcotest.fail "3 agents should not stabilise to consensus"
  | _ -> ()

let test_check_predicate () =
  let p = Flock.succinct 2 in
  (match
     Fair_semantics.check_predicate p (Predicate.threshold_single 4)
       ~inputs:(List.init 8 (fun i -> [| i + 2 |]))
   with
  | Fair_semantics.Ok_all 8 -> ()
  | Fair_semantics.Ok_all n -> Alcotest.failf "checked %d inputs" n
  | Fair_semantics.Mismatch (v, verdict, expected) ->
    Alcotest.failf "mismatch at %d: %a (expected %b)" v.(0)
      Fair_semantics.pp_verdict verdict expected);
  (* wrong spec must be caught *)
  match
    Fair_semantics.check_predicate p (Predicate.threshold_single 5)
      ~inputs:[ [| 4 |] ]
  with
  | Fair_semantics.Mismatch _ -> ()
  | Fair_semantics.Ok_all _ -> Alcotest.fail "wrong spec accepted"

let test_valid_inputs () =
  let leaderless = Flock.succinct 1 in
  Alcotest.(check (list int)) "leaderless starts at 2" [ 2; 3; 4 ]
    (Fair_semantics.valid_inputs_single leaderless ~max:4);
  let with_leaders = Leader_counter.protocol 2 in
  Alcotest.(check (list int)) "two leaders allow 0" [ 0; 1; 2 ]
    (Fair_semantics.valid_inputs_single with_leaders ~max:2)

(* -- Eta_search ------------------------------------------------------------ *)

let test_eta_exact () =
  List.iter
    (fun (p, expected, max_input) ->
      match Eta_search.find p ~max_input with
      | Eta_search.Eta eta -> Alcotest.(check int) p.Population.name expected eta
      | r -> Alcotest.failf "%s: %a" p.Population.name Eta_search.pp_result r)
    [
      (Flock.naive 2, 4, 10);
      (Flock.succinct 2, 4, 10);
      (Flock.succinct 3, 8, 18);
      (Threshold.binary 6, 6, 12);
      (Threshold.binary 11, 11, 16);
      (Threshold.unary 4, 4, 9);
      (Leader_counter.protocol 2, 4, 9);
    ]

let test_eta_always_accepts () =
  (match Eta_search.find (Threshold.binary 1) ~max_input:6 with
   | Eta_search.Always_accepts -> ()
   | r -> Alcotest.failf "expected always-accepts: %a" Eta_search.pp_result r);
  (* eta = 2 is indistinguishable from always-accepting, because every
     valid leaderless input has at least two agents *)
  match Eta_search.find (Flock.naive 1) ~max_input:6 with
  | Eta_search.Always_accepts -> ()
  | r -> Alcotest.failf "eta=2 should read always-accepts: %a" Eta_search.pp_result r

let test_eta_always_rejects () =
  (* a threshold beyond the cutoff looks like reject-all *)
  match Eta_search.find (Flock.succinct 4) ~max_input:9 with
  | Eta_search.Always_rejects -> ()
  | r -> Alcotest.failf "expected always-rejects: %a" Eta_search.pp_result r

let test_eta_not_threshold () =
  match Eta_search.find (Modulo_protocol.protocol ~m:2 ~r:0) ~max_input:8 with
  | Eta_search.Not_threshold _ -> ()
  | r -> Alcotest.failf "expected not-threshold: %a" Eta_search.pp_result r

(* -- Witness traces ---------------------------------------------------------- *)

let test_witness_basic () =
  let p = Flock.succinct 2 in
  let src = Population.initial_single p 4 in
  match
    Witness.find p ~src ~target:(fun c -> Population.output_of_config p c = Some true)
  with
  | None -> Alcotest.fail "accepting configuration unreachable"
  | Some (sigma, c) ->
    (* replay must land exactly on the reported configuration *)
    (match Witness.replay p src sigma with
     | Some c' -> Alcotest.(check bool) "replay agrees" true (Mset.equal c c')
     | None -> Alcotest.fail "trace not fireable");
    Alcotest.(check (option bool)) "target satisfied" (Some true)
      (Population.output_of_config p c)

let test_witness_minimal_length () =
  (* from 4 agents, reaching all-accepting takes exactly 4 interactions:
     two merges to v2, one merge to v4, then... v4 converts the zeros:
     1,1->0,2 ; 1,1->0,2 ; 2,2->0,4 ; then three conversions of v0 *)
  let p = Flock.succinct 2 in
  let src = Population.initial_single p 4 in
  match
    Witness.find p ~src ~target:(fun c -> Population.output_of_config p c = Some true)
  with
  | Some (sigma, _) -> Alcotest.(check int) "shortest trace" 6 (List.length sigma)
  | None -> Alcotest.fail "unreachable"

let test_witness_unreachable () =
  let p = Flock.succinct 2 in
  let src = Population.initial_single p 3 in
  Alcotest.(check bool) "3 agents never accept" true
    (Witness.find p ~src ~target:(fun c -> Population.output_of_config p c = Some true)
     = None)

let test_witness_find_config () =
  let p = Flock.succinct 2 in
  let src = Population.initial_single p 2 in
  let d = Population.num_states p in
  let target = Mset.of_list d [ (0, 1); (2, 1) ] in
  (match Witness.find_config p ~src target with
   | Some [ _ ] -> ()
   | Some sigma -> Alcotest.failf "expected one step, got %d" (List.length sigma)
   | None -> Alcotest.fail "one merge away");
  Alcotest.(check bool) "self is empty trace" true
    (Witness.find_config p ~src src = Some [])

(* -- Failure injection: broken protocols are caught -------------------------- *)

let test_broken_output_detected () =
  (* flip one output bit of a correct protocol: the spec check fails *)
  let p = Flock.succinct 2 in
  let output = Array.copy p.Population.output in
  output.(0) <- not output.(0);
  let broken =
    Population.make ~name:"broken" ~states:(Array.copy p.Population.states)
      ~transitions:
        (Array.to_list
           (Array.map
              (fun { Population.pre = a, b; post = a', b' } -> (a, b, a', b'))
              p.Population.transitions))
      ~inputs:[ ("x", p.Population.input_map.(0)) ]
      ~output ()
  in
  match
    Fair_semantics.check_predicate broken (Predicate.threshold_single 4)
      ~inputs:[ [| 2 |]; [| 3 |]; [| 4 |]; [| 5 |] ]
  with
  | Fair_semantics.Mismatch _ -> ()
  | Fair_semantics.Ok_all _ -> Alcotest.fail "broken output map accepted"

let test_broken_transition_detected () =
  (* redirect the top-merging transition: the threshold changes or breaks *)
  let p = Flock.succinct 2 in
  let quads =
    Array.to_list
      (Array.map
         (fun { Population.pre = a, b; post = a', b' } ->
           (* v2,v2 -> v0,v4 becomes v2,v2 -> v0,v0 *)
           if (a, b) = (2, 2) then (a, b, 0, 0) else (a, b, a', b'))
         p.Population.transitions)
  in
  let broken =
    Population.make ~name:"no-top" ~states:(Array.copy p.Population.states)
      ~transitions:quads
      ~inputs:[ ("x", p.Population.input_map.(0)) ]
      ~output:(Array.copy p.Population.output) ()
  in
  match Eta_search.find broken ~max_input:10 with
  | Eta_search.Eta 4 -> Alcotest.fail "mutation not detected"
  | _ -> ()

let () =
  Alcotest.run "verify"
    [
      ( "configgraph",
        [
          Alcotest.test_case "explore counts" `Quick test_explore_counts;
          Alcotest.test_case "budget" `Quick test_explore_budget;
          Alcotest.test_case "find and reach" `Quick test_find_and_reach;
          explore_size_prop;
        ] );
      ( "packed",
        [
          Alcotest.test_case "graph identical" `Quick test_packed_graph_identical;
          Alcotest.test_case "budget" `Quick test_packed_budget;
          packed_graph_prop;
          packed_verdict_prop;
          packed_sccs_prop;
        ] );
      ( "scc",
        [
          Alcotest.test_case "line" `Quick test_scc_line;
          Alcotest.test_case "cycle" `Quick test_scc_cycle;
          Alcotest.test_case "two bottoms" `Quick test_scc_two_bottoms;
          Alcotest.test_case "strongly connected" `Quick test_scc_self_loop_graph;
          scc_partition_prop;
        ] );
      ( "fair-semantics",
        [
          Alcotest.test_case "tiny protocol" `Quick test_decide_tiny;
          Alcotest.test_case "check_predicate" `Quick test_check_predicate;
          Alcotest.test_case "valid inputs" `Quick test_valid_inputs;
        ] );
      ( "eta-search",
        [
          Alcotest.test_case "exact thresholds" `Quick test_eta_exact;
          Alcotest.test_case "always accepts" `Quick test_eta_always_accepts;
          Alcotest.test_case "always rejects" `Quick test_eta_always_rejects;
          Alcotest.test_case "not a threshold" `Quick test_eta_not_threshold;
        ] );
      ( "witness",
        [
          Alcotest.test_case "basic" `Quick test_witness_basic;
          Alcotest.test_case "minimal length" `Quick test_witness_minimal_length;
          Alcotest.test_case "unreachable" `Quick test_witness_unreachable;
          Alcotest.test_case "find_config" `Quick test_witness_find_config;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "broken output" `Quick test_broken_output_detected;
          Alcotest.test_case "broken transition" `Quick test_broken_transition_detected;
        ] );
    ]
