(* Tests for ω-vectors, up/down-closed sets, backward coverability and
   the exact stable-set computation (Sections 3 and the Lemma 3.1/3.2
   machinery), cross-checked against brute-force reachability. *)

let prop name ?(count = 60) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let mset l = Mset.of_array (Array.of_list l)

let random_protocol ~d ~seed =
  Protocol_gen.generate
    ~config:{ Protocol_gen.default with Protocol_gen.num_states = d }
    ~seed ()

(* -- Omega_vec ------------------------------------------------------------ *)

let test_omega_basic () =
  let v = Omega_vec.of_basis_element (mset [ 1; 0; 2 ]) [ 1 ] in
  Alcotest.(check bool) "member below" true (Omega_vec.member (mset [ 1; 7; 2 ]) v);
  Alcotest.(check bool) "not member" false (Omega_vec.member (mset [ 2; 0; 0 ]) v);
  Alcotest.(check int) "norm ignores omega" 2 (Omega_vec.norm_inf v);
  let b, s = Omega_vec.to_basis_element v in
  Alcotest.(check (list int)) "S round-trip" [ 1 ] s;
  Alcotest.(check bool) "B round-trip" true (Mset.equal b (mset [ 1; 0; 2 ]))

let test_omega_leq_meet () =
  let fin = Omega_vec.finite [| 1; 2 |] in
  let om = Omega_vec.of_basis_element (mset [ 1; 0 ]) [ 1 ] in
  Alcotest.(check bool) "fin <= (1,ω)" true (Omega_vec.leq fin om);
  Alcotest.(check bool) "(1,ω) <= fin fails" false (Omega_vec.leq om fin);
  let m = Omega_vec.meet fin om in
  Alcotest.(check bool) "meet" true
    (Omega_vec.equal m (Omega_vec.finite [| 1; 2 |]));
  Alcotest.(check bool) "omega not finite" false (Omega_vec.is_finite om)

let test_omega_rejects_negative () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Omega_vec.finite: negative coordinate") (fun () ->
      ignore (Omega_vec.finite [| -1 |]))

(* -- Upset ----------------------------------------------------------------- *)

let test_upset_minimization () =
  let u = Upset.of_elements 2 [ mset [ 2; 1 ]; mset [ 1; 1 ]; mset [ 3; 0 ] ] in
  Alcotest.(check int) "dominated dropped" 2 (Upset.size u);
  Alcotest.(check bool) "mem" true (Upset.mem (mset [ 5; 5 ]) u);
  Alcotest.(check bool) "not mem" false (Upset.mem (mset [ 0; 9 ]) u);
  Alcotest.(check int) "max norm" 3 (Upset.max_norm u)

let test_upset_add () =
  let u = Upset.of_elements 2 [ mset [ 2; 2 ] ] in
  Alcotest.(check bool) "covered add is None" true (Upset.add (mset [ 3; 3 ]) u = None);
  (match Upset.add (mset [ 3; 0 ]) u with
   | None -> Alcotest.fail "incomparable element rejected"
   | Some u' ->
     Alcotest.(check int) "incomparable element added" 2 (Upset.size u');
     Alcotest.(check bool) "subset" true (Upset.subset u u'));
  match Upset.add (mset [ 0; 1 ]) u with
  | None -> Alcotest.fail "dominating element rejected"
  | Some u' ->
    (* (0,1) lies below (2,2), so its up-closure swallows the old element *)
    Alcotest.(check int) "smaller element replaces" 1 (Upset.size u');
    Alcotest.(check bool) "subset" true (Upset.subset u u')

let test_upset_complement_roundtrip () =
  let u = Upset.of_elements 2 [ mset [ 2; 0 ]; mset [ 0; 3 ] ] in
  let comp = Upset.complement u in
  (* membership in complement = non-membership in upset, checked on a grid *)
  for a = 0 to 5 do
    for b = 0 to 5 do
      let c = mset [ a; b ] in
      let in_comp = List.exists (Omega_vec.member c) comp in
      if in_comp = Upset.mem c u then
        Alcotest.failf "complement wrong at (%d,%d)" a b
    done
  done

let test_upset_complement_edge_cases () =
  Alcotest.(check int) "complement of empty is everything" 1
    (List.length (Upset.complement (Upset.empty 3)));
  let everything = Upset.of_elements 2 [ Mset.zero 2 ] in
  Alcotest.(check (list int)) "complement of everything is empty" []
    (List.map (fun _ -> 0) (Upset.complement everything))

let print_elements (d, els) =
  Printf.sprintf "dim %d: [%s]" d
    (String.concat "; "
       (List.map
          (fun a -> String.concat "," (Array.to_list (Array.map string_of_int a)))
          els))

(* [lo]–[hi] elements of a random dimension in [1, max_dim], coordinates
   0–4; zero vectors and duplicates are drawn on purpose *)
let gen_elements ~max_dim ~lo ~hi =
  QCheck.Gen.(
    int_range 1 max_dim >>= fun d ->
    let elt =
      frequency [ (8, array_size (return d) (int_bound 4)); (1, return (Array.make d 0)) ]
    in
    list_size (int_range lo hi) elt >>= fun els ->
    bool >|= fun dup ->
    match els with
    | first :: _ :: rest when dup -> (d, first :: Array.copy first :: rest)
    | _ -> (d, els))

let arb_upset_and_point =
  QCheck.make
    ~print:(fun ((d, els), pt) ->
      print_elements (d, els) ^ " at "
      ^ String.concat "," (Array.to_list (Array.map string_of_int pt)))
    QCheck.Gen.(
      gen_elements ~max_dim:5 ~lo:1 ~hi:5 >>= fun (d, els) ->
      array_size (return d) (int_bound 6) >|= fun pt -> ((d, els), pt))

let upset_of (d, els) = Upset.of_elements d (List.map Mset.of_array els)

let complement_prop =
  prop "complement is exact complement" arb_upset_and_point (fun (e, pt) ->
      let u = upset_of e in
      let comp = Upset.complement u in
      let c = Mset.of_array pt in
      List.exists (Omega_vec.member c) comp <> Upset.mem c u)

let arb_elements =
  QCheck.make ~print:print_elements (gen_elements ~max_dim:6 ~lo:0 ~hi:12)

let complement_oracle_prop =
  prop "complement = oracle" ~count:1000 arb_elements (fun e ->
      let u = upset_of e in
      Upset.complement u = Complement_oracle.complement u)

let complement_antichain_prop =
  prop "complement is an antichain" ~count:500 arb_elements (fun e ->
      let comp = Array.of_list (Upset.complement (upset_of e)) in
      let ok = ref true in
      Array.iteri
        (fun i v ->
          Array.iteri
            (fun j w -> if i <> j && Omega_vec.leq v w then ok := false)
            comp)
        comp;
      !ok)

(* the unstable upsets of catalog protocols, both outputs *)
let test_complement_catalog_oracle () =
  List.iter
    (fun name ->
      let p = (Option.get (Catalog.build name)).Catalog.build () in
      let a = Stable_sets.analyse p in
      List.iter
        (fun b ->
          let u = Stable_sets.unstable a b in
          if Upset.complement u <> Complement_oracle.complement u then
            Alcotest.failf "%s: complement of unstable%d differs from the oracle" name
              (Bool.to_int b))
        [ false; true ])
    [ "flock-succinct-5"; "threshold-binary-11"; "leader-counter-3"; "majority" ]

(* SC_0/SC_1 of threshold-binary-37 rendered vector by vector, pinned by
   digests of what the oracle complement produces *)
let test_complement_pinned () =
  let p = (Option.get (Catalog.build "threshold-binary-37")).Catalog.build () in
  let a = Stable_sets.analyse p in
  let names = p.Population.states in
  let digest s =
    String.concat "\n"
      (List.map (Format.asprintf "%a" (Omega_vec.pp ~names)) (Downset.max_elements s))
    |> Digest.string |> Digest.to_hex
  in
  let sc0 = a.Stable_sets.stable0 and sc1 = a.Stable_sets.stable1 in
  Alcotest.(check int) "|SC_0|" 285 (Downset.size sc0);
  Alcotest.(check int) "norm SC_0" 36 (Downset.norm sc0);
  Alcotest.(check string) "SC_0 digest" "e30aa129055af21ec6ddf1795758dd6d" (digest sc0);
  Alcotest.(check int) "|SC_1|" 1 (Downset.size sc1);
  Alcotest.(check string) "SC_1 digest" "5a6091f04685f9121ff638a2782784ab" (digest sc1)

(* -- Downset ---------------------------------------------------------------- *)

let test_downset_basic () =
  let d =
    Downset.of_max_elements 2
      [ Omega_vec.of_basis_element (mset [ 2; 0 ]) [ 1 ]; Omega_vec.finite [| 3; 1 |] ]
  in
  Alcotest.(check int) "two max elements" 2 (Downset.size d);
  Alcotest.(check bool) "mem" true (Downset.mem (mset [ 1; 100 ]) d);
  Alcotest.(check bool) "not mem" false (Downset.mem (mset [ 4; 0 ]) d);
  Alcotest.(check int) "norm" 3 (Downset.norm d)

let test_downset_union_subset () =
  let v1 = Omega_vec.finite [| 1; 1 |] and v2 = Omega_vec.finite [| 2; 2 |] in
  let d1 = Downset.of_max_elements 2 [ v1 ] and d2 = Downset.of_max_elements 2 [ v2 ] in
  let u = Downset.union d1 d2 in
  Alcotest.(check int) "dominated dropped in union" 1 (Downset.size u);
  Alcotest.(check bool) "subset" true (Downset.subset d1 d2);
  Alcotest.(check bool) "equal to bigger" true (Downset.equal u d2)

(* -- Backward coverability --------------------------------------------------- *)

(* brute-force coverability on the explicit graph *)
let brute_coverable p c0 target =
  let g = Configgraph.explore p c0 in
  Configgraph.can_reach g ~src:g.Configgraph.root (fun c -> Mset.leq target c)

let test_coverable_flock () =
  let p = Flock.succinct 2 in
  let d = Population.num_states p in
  let top = Population.state_index p "v4" in
  (* 4 agents can cover the top state, 3 cannot *)
  Alcotest.(check bool) "4 covers top" true
    (Backward.coverable p ~from:(Population.initial_single p 4)
       ~target:(Mset.singleton d top));
  Alcotest.(check bool) "3 does not" false
    (Backward.coverable p ~from:(Population.initial_single p 3)
       ~target:(Mset.singleton d top))

let coverability_vs_brute_prop =
  prop "backward agrees with explicit search" ~count:40
    QCheck.(pair (int_range 2 8) (int_range 0 4))
    (fun (i, tgt) ->
      let p = Flock.succinct 2 in
      let d = Population.num_states p in
      let target = Mset.singleton d (tgt mod d) in
      let c0 = Population.initial_single p i in
      Backward.coverable p ~from:c0 ~target = brute_coverable p c0 target)

let test_pre_star_stats () =
  let p = Flock.succinct 2 in
  let d = Population.num_states p in
  let u = Upset.of_elements d [ Mset.singleton d (Population.state_index p "v4") ] in
  let result, stats = Backward.pre_star_stats p u in
  Alcotest.(check bool) "some iterations" true (stats.Backward.iterations > 0);
  Alcotest.(check bool) "target still inside" true (Upset.subset u result)

(* -- Stable sets -------------------------------------------------------------- *)

let brute_stable p g b =
  not
    (Configgraph.can_reach g ~src:g.Configgraph.root (fun c ->
         Population.output_of_config p c <> Some b))

let test_stable_sets_downward_closed () =
  (* Lemma 3.1: SC_b is downward closed — it is represented as a downset,
     so instead check agreement with brute force on all small configs. *)
  let p = Threshold.binary 5 in
  let a = Stable_sets.analyse p in
  let d = Population.num_states p in
  (* enumerate all configurations with <= 3 agents *)
  let all = ref [] in
  for q1 = 0 to d - 1 do
    for q2 = q1 to d - 1 do
      all := Mset.of_list d [ (q1, 1); (q2, 1) ] :: !all;
      for q3 = q2 to d - 1 do
        all := Mset.of_list d [ (q1, 1); (q2, 1); (q3, 1) ] :: !all
      done
    done
  done;
  List.iter
    (fun c ->
      let g = Configgraph.explore p c in
      List.iter
        (fun b ->
          if Stable_sets.is_stable a b c <> brute_stable p g b then
            Alcotest.failf "stability mismatch (b=%b) at %s" b
              (Format.asprintf "%a" (Population.pp_config p) c))
        [ true; false ])
    !all

let test_stable_sets_disjoint () =
  (* SC_0 and SC_1 share only configurations with no agents in
     output-relevant states... in fact a config in both would have to be
     simultaneously all-0 and all-1: only the empty one. *)
  let p = Flock.succinct 2 in
  let a = Stable_sets.analyse p in
  let d = Population.num_states p in
  for q = 0 to d - 1 do
    let c = Mset.singleton d q in
    if Stable_sets.is_stable a true c && Stable_sets.is_stable a false c then
      Alcotest.failf "singleton %d stable for both outputs" q
  done

let test_stable_union_basis () =
  let p = Flock.succinct 2 in
  let a = Stable_sets.analyse p in
  let sc = Stable_sets.stable_union a in
  Alcotest.(check int) "union basis size"
    (List.length (Downset.basis sc))
    (Downset.size sc);
  (* the all-accepting configuration is 1-stable *)
  let top = Population.state_index p "v4" in
  Alcotest.(check bool) "all-top is stable" true
    (Stable_sets.is_stable a true (Mset.of_list (Population.num_states p) [ (top, 9) ]))

let test_stable_sets_majority () =
  let p = Majority.protocol () in
  let a = Stable_sets.analyse p in
  let d = Population.num_states p in
  let ia = Population.state_index p "a" and ib = Population.state_index p "b" in
  let iA = Population.state_index p "A" and iB = Population.state_index p "B" in
  (* all-b and all-a-with-A are stable; mixed passives are not *)
  Alcotest.(check bool) "all-b 0-stable" true
    (Stable_sets.is_stable a false (Mset.of_list d [ (ib, 3) ]));
  Alcotest.(check bool) "A+a 1-stable" true
    (Stable_sets.is_stable a true (Mset.of_list d [ (iA, 1); (ia, 2) ]));
  Alcotest.(check bool) "a+b not 1-stable" false
    (Stable_sets.is_stable a true (Mset.of_list d [ (ia, 1); (ib, 1) ]));
  Alcotest.(check bool) "A+B not stable either way" false
    (Stable_sets.is_stable a true (Mset.of_list d [ (iA, 1); (iB, 1) ])
    || Stable_sets.is_stable a false (Mset.of_list d [ (iA, 1); (iB, 1) ]))

let stable_sets_random_prop =
  prop "stable sets match brute force on random protocols" ~count:25
    QCheck.(pair (int_range 0 2000) (int_range 2 5))
    (fun (seed, size) ->
      let p = random_protocol ~d:3 ~seed in
      let a = Stable_sets.analyse p in
      let ok = ref true in
      (* all configurations with [size] agents over 3 states *)
      for x = 0 to size do
        for y = 0 to size - x do
          let c = Mset.of_list 3 [ (0, x); (1, y); (2, size - x - y) ] in
          let g = Configgraph.explore p c in
          List.iter
            (fun b ->
              let brute =
                not
                  (Configgraph.can_reach g ~src:g.Configgraph.root (fun c' ->
                       Population.output_of_config p c' <> Some b))
              in
              if brute <> Stable_sets.is_stable a b c then ok := false)
            [ true; false ]
        done
      done;
      !ok)

let test_paper_norm_bound () =
  (* Lemma 3.2: the exact basis norm is (astronomically) below beta *)
  List.iter
    (fun e ->
      let p = e.Catalog.build () in
      if Population.num_states p <= 8 then begin
        let a = Stable_sets.analyse p in
        let n = Population.num_states p in
        let norm = Downset.norm (Stable_sets.stable_union a) in
        let beta = Factorial_bounds.beta n in
        Alcotest.(check bool)
          (e.Catalog.name ^ ": norm <= beta")
          true
          (Magnitude.compare (Magnitude.of_int norm) beta <= 0)
      end)
    (Catalog.default_entries ())

(* -- Karp–Miller -------------------------------------------------------------- *)

let test_km_matches_explicit () =
  (* on a fixed input the clover is exactly the downward closure of the
     reachable configurations *)
  let p = Flock.succinct 2 in
  let c0 = Population.initial_single p 4 in
  let cl = Karp_miller.downset p c0 in
  let g = Configgraph.explore p c0 in
  Array.iter
    (fun c ->
      if not (Downset.mem c cl) then
        Alcotest.failf "reachable configuration outside the clover")
    g.Configgraph.configs;
  (* and nothing of larger size sneaks in *)
  Alcotest.(check bool) "bounded norm" true (Downset.norm cl <= 4)

let km_vs_backward_prop =
  prop "Karp–Miller agrees with backward coverability" ~count:40
    QCheck.(triple (int_range 0 500) (int_range 2 6) (int_range 0 3))
    (fun (seed, i, q) ->
      let p = random_protocol ~d:4 ~seed in
      let d = Population.num_states p in
      let from = Population.initial_single p i in
      let target = Mset.singleton d (q mod d) in
      Karp_miller.coverable p ~from ~target = Backward.coverable p ~from ~target)

let test_km_parametric () =
  let p = Flock.succinct 3 in
  let cl = Karp_miller.clover_parametric p in
  (* every state is coverable from some input, so the parametric clover
     must dominate every singleton *)
  let d = Population.num_states p in
  for q = 0 to d - 1 do
    if not (List.exists (Omega_vec.member (Mset.singleton d q)) cl) then
      Alcotest.failf "state %d missing from parametric clover" q
  done

let test_km_parametric_dead_state () =
  let p =
    Population.complete
      (Population.make ~name:"dead"
         ~states:[| "x"; "dead" |]
         ~transitions:[ (0, 0, 0, 0) ]
         ~inputs:[ ("x", 0) ]
         ~output:[| false; true |] ())
  in
  let cl = Karp_miller.clover_parametric p in
  Alcotest.(check bool) "dead state not coverable" false
    (List.exists (Omega_vec.member (Mset.singleton 2 1)) cl)

let test_km_budget () =
  let p = Flock.succinct 2 in
  match Karp_miller.clover ~max_nodes:2 p (Population.initial_single p 6) with
  | _ -> Alcotest.fail "budget of 2 nodes not enforced"
  | exception Obs.Budget.Exceeded info ->
    Alcotest.(check string) "source" "karp_miller.clover" info.Obs.Budget.source;
    Alcotest.(check string) "resource" "nodes" info.Obs.Budget.resource;
    (match info.Obs.Budget.partial with
     | Karp_miller.Partial_clover vs ->
       (* the partial clover under-approximates: everything in it is
          genuinely reachable-downward, here just sanity-check shape *)
       Alcotest.(check bool) "partial clover non-empty" true (vs <> [])
     | _ -> Alcotest.fail "expected Partial_clover in the budget exception")

(* the parametric tree trips its node budget under its own name, and
   what it had found under-approximates the full parametric clover *)
let test_km_parametric_budget () =
  let p = Flock.succinct 3 in
  let full = Karp_miller.clover_parametric p in
  match Karp_miller.clover_parametric ~max_nodes:3 p with
  | _ -> Alcotest.fail "budget of 3 nodes not enforced"
  | exception Obs.Budget.Exceeded info ->
    Alcotest.(check string) "source" "karp_miller.clover_parametric"
      info.Obs.Budget.source;
    Alcotest.(check string) "resource" "nodes" info.Obs.Budget.resource;
    Alcotest.(check (list string)) "consumed" [ "nodes"; "accelerations" ]
      (List.map fst info.Obs.Budget.consumed);
    Alcotest.(check (float 0.0)) "nodes past the limit" 4.0
      (List.assoc "nodes" info.Obs.Budget.consumed);
    (match info.Obs.Budget.partial with
     | Karp_miller.Partial_clover vs ->
       Alcotest.(check bool) "partial clover non-empty" true (vs <> []);
       Alcotest.(check bool) "partial clover below the full one" true
         (List.for_all
            (fun v -> List.exists (fun u -> Omega_vec.leq v u) full)
            vs)
     | _ -> Alcotest.fail "expected Partial_clover in the budget exception")

let () =
  Alcotest.run "coverability"
    [
      ( "omega-vec",
        [
          Alcotest.test_case "basics" `Quick test_omega_basic;
          Alcotest.test_case "leq and meet" `Quick test_omega_leq_meet;
          Alcotest.test_case "negatives rejected" `Quick test_omega_rejects_negative;
        ] );
      ( "upset",
        [
          Alcotest.test_case "minimization" `Quick test_upset_minimization;
          Alcotest.test_case "add" `Quick test_upset_add;
          Alcotest.test_case "complement grid" `Quick test_upset_complement_roundtrip;
          Alcotest.test_case "complement edges" `Quick test_upset_complement_edge_cases;
          complement_prop;
          complement_oracle_prop;
          complement_antichain_prop;
          Alcotest.test_case "complement = oracle on catalog upsets" `Slow
            test_complement_catalog_oracle;
          Alcotest.test_case "complement pinned on threshold-binary-37" `Quick
            test_complement_pinned;
        ] );
      ( "downset",
        [
          Alcotest.test_case "basics" `Quick test_downset_basic;
          Alcotest.test_case "union/subset" `Quick test_downset_union_subset;
        ] );
      ( "backward",
        [
          Alcotest.test_case "flock coverable" `Quick test_coverable_flock;
          Alcotest.test_case "stats" `Quick test_pre_star_stats;
          coverability_vs_brute_prop;
        ] );
      ( "karp-miller",
        [
          Alcotest.test_case "matches explicit reachability" `Quick test_km_matches_explicit;
          Alcotest.test_case "parametric clover" `Quick test_km_parametric;
          Alcotest.test_case "parametric dead state" `Quick test_km_parametric_dead_state;
          Alcotest.test_case "budget" `Quick test_km_budget;
          Alcotest.test_case "parametric budget" `Quick test_km_parametric_budget;
          km_vs_backward_prop;
        ] );
      ( "stable-sets",
        [
          Alcotest.test_case "vs brute force" `Quick test_stable_sets_downward_closed;
          Alcotest.test_case "disjointness" `Quick test_stable_sets_disjoint;
          Alcotest.test_case "union basis" `Quick test_stable_union_basis;
          Alcotest.test_case "majority" `Quick test_stable_sets_majority;
          Alcotest.test_case "norm below beta" `Quick test_paper_norm_bound;
          stable_sets_random_prop;
        ] );
    ]
