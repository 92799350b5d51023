(* Tests for the paper's core pipeline: saturation (Lemma 5.4),
   potentially realisable multisets (Definition 4, Corollary 5.7),
   pumping witnesses (Section 4) and busy-beaver search. The full
   Lemma 5.2 certificates are exercised in test_integration. *)

(* -- Saturation ------------------------------------------------------------- *)

let test_saturation_flock () =
  List.iter
    (fun k ->
      let p = Flock.succinct k in
      match Saturation.find p with
      | Error e -> Alcotest.failf "succinct-%d: %s" k e
      | Ok w ->
        Alcotest.(check bool)
          (Printf.sprintf "succinct-%d: levels <= states" k)
          true
          (w.Saturation.levels <= Population.num_states p);
        Alcotest.(check int)
          (Printf.sprintf "succinct-%d: sigma length" k)
          ((w.Saturation.input - 1) / 2)
          (List.length w.Saturation.sigma);
        Alcotest.(check bool)
          (Printf.sprintf "succinct-%d: replay checks" k)
          true (Saturation.check w);
        Alcotest.(check int)
          (Printf.sprintf "succinct-%d: result is 1-saturated" k)
          (Population.num_states p)
          (List.length (Mset.support w.Saturation.result)))
    [ 1; 2; 3; 4 ]

let test_saturation_various () =
  List.iter
    (fun name ->
      match Catalog.build name with
      | None -> Alcotest.failf "catalog: %s" name
      | Some e ->
        let p = e.Catalog.build () in
        if Population.is_leaderless p then begin
          match Saturation.find p with
          | Ok w -> Alcotest.(check bool) (name ^ " checks") true (Saturation.check w)
          | Error err -> Alcotest.failf "%s: %s" name err
        end)
    [ "threshold-binary-5"; "threshold-binary-11"; "threshold-unary-4"; "mod-3-1" ]

let test_saturation_rejects_leaders () =
  match Saturation.find (Leader_counter.protocol 2) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "leader protocol accepted"

let test_saturation_dead_state () =
  (* a protocol with an unreachable state *)
  let p =
    Population.complete
      (Population.make ~name:"dead"
         ~states:[| "x"; "dead" |]
         ~transitions:[ (0, 0, 0, 0) ]
         ~inputs:[ ("x", 0) ]
         ~output:[| false; true |] ())
  in
  match Saturation.find p with
  | Error msg ->
    Alcotest.(check string) "names the dead state" "states not coverable: dead"
      msg
  | Ok _ -> Alcotest.fail "dead state saturated"

let test_saturation_scaling () =
  let p = Flock.succinct 2 in
  match Saturation.find p with
  | Error e -> Alcotest.fail e
  | Ok w ->
    (match Saturation.replay_scaled w 3 with
     | Some c ->
       Alcotest.(check bool) "3-scaled result" true
         (Mset.equal c (Mset.scale 3 w.Saturation.result))
     | None -> Alcotest.fail "scaled replay failed")

let test_coverable_support () =
  let p = Flock.succinct 3 in
  Alcotest.(check bool) "all states coverable" true
    (Array.for_all Fun.id (Transform.coverable_states p))

(* -- Potential ---------------------------------------------------------------- *)

let test_potential_system_shape () =
  let p = Flock.succinct 2 in
  let s = Potential.system p in
  Alcotest.(check int) "|Q|-1 constraints"
    (Population.num_states p - 1)
    (Diophantine.num_constraints s);
  Alcotest.(check int) "|T| variables" (Population.num_transitions p)
    s.Diophantine.num_vars

let test_potential_membership () =
  let p = Flock.succinct 2 in
  let nt = Population.num_transitions p in
  (* the empty multiset is potentially realisable *)
  Alcotest.(check bool) "empty" true
    (Potential.is_potentially_realisable p (Array.make nt 0));
  (* firing 'x,x -> 0,2' once: realisable (consumes input only) *)
  let find_tr pre post =
    let rec go i =
      if i >= nt then Alcotest.fail "transition not found"
      else begin
        let tr = p.Population.transitions.(i) in
        if tr.Population.pre = pre && tr.Population.post = post then i else go (i + 1)
      end
    in
    go 0
  in
  let x = Population.state_index p "v1" in
  let zero = Population.state_index p "v0" in
  let two = Population.state_index p "v2" in
  let merge = find_tr (Stdlib.min x x, x) (Stdlib.min zero two, Stdlib.max zero two) in
  let pi = Array.make nt 0 in
  pi.(merge) <- 1;
  Alcotest.(check bool) "merge realisable" true (Potential.is_potentially_realisable p pi);
  Alcotest.(check int) "needs input 2" 2 (Potential.min_input p pi);
  let i, c = Potential.result_config p pi in
  Alcotest.(check int) "i = 2" 2 i;
  Alcotest.(check int) "result size 2" 2 (Mset.size c);
  Alcotest.(check int) "no input agents left" 0 (Mset.get c x)

let test_potential_basis_corollary () =
  List.iter
    (fun name ->
      match Catalog.build name with
      | None -> Alcotest.failf "catalog: %s" name
      | Some e ->
        let p = e.Catalog.build () in
        if Population.is_leaderless p then begin
          let basis = Potential.basis p in
          Alcotest.(check bool) (name ^ ": basis nonempty") true (basis <> []);
          Alcotest.(check bool)
            (name ^ ": Corollary 5.7 bounds hold")
            true
            (Potential.check_corollary_5_7 p basis)
        end)
    [ "flock-succinct-1"; "flock-succinct-2"; "threshold-binary-3"; "mod-2-0" ]

let test_potential_decompose () =
  let p = Flock.succinct 2 in
  let nt = Population.num_transitions p in
  (* a random-walk Parikh vector is potentially realisable (Lemma 5.1(i))
     and must decompose over the Pottier basis (Corollary 5.7) *)
  let rng = Splitmix64.create 77 in
  let pi = Array.make nt 0 in
  let rec walk c steps =
    if steps = 0 then ()
    else begin
      let enabled = List.filter (Population.enabled p c) (List.init nt Fun.id) in
      match enabled with
      | [] -> ()
      | _ ->
        let t = List.nth enabled (Splitmix64.int_below rng (List.length enabled)) in
        pi.(t) <- pi.(t) + 1;
        walk (Population.fire p c t) (steps - 1)
    end
  in
  walk (Population.initial_single p 9) 12;
  (match Potential.decompose p pi with
   | Some parts ->
     let total = Array.make nt 0 in
     List.iter (Array.iteri (fun i x -> total.(i) <- total.(i) + x)) parts;
     Alcotest.(check (array int)) "parts sum to pi" pi total
   | None -> Alcotest.fail "realisable multiset did not decompose");
  (* a non-realisable multiset must be rejected: find a transition whose
     lone firing consumes non-input agents nothing produced *)
  let rec find_consuming i =
    if i >= nt then None
    else begin
      let one = Array.make nt 0 in
      one.(i) <- 1;
      if Potential.is_potentially_realisable p one then find_consuming (i + 1)
      else Some one
    end
  in
  (match find_consuming 0 with
   | Some one ->
     Alcotest.(check bool) "non-realisable rejected" true
       (Potential.decompose p one = None)
   | None -> ())

let test_potential_rejects_leaders () =
  Alcotest.check_raises "leaders rejected"
    (Invalid_argument "Potential.system: leaderless protocols only") (fun () ->
      ignore (Potential.system (Leader_counter.protocol 1)))

(* realisability is necessary for actual firing sequences (Lemma 5.1(i)) *)
let potential_necessity_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Parikh images of real runs are potentially realisable"
       ~count:40
       QCheck.(pair (int_range 2 12) (int_range 0 9999))
       (fun (input, seed) ->
         let p = Flock.succinct 2 in
         let rng = Splitmix64.create seed in
         (* random walk of up to 20 steps, collect Parikh vector *)
         let nt = Population.num_transitions p in
         let pi = Array.make nt 0 in
         let rec walk c steps =
           if steps = 0 then ()
           else begin
             let enabled =
               List.filter (Population.enabled p c) (List.init nt Fun.id)
             in
             match enabled with
             | [] -> ()
             | _ ->
               let t = List.nth enabled (Splitmix64.int_below rng (List.length enabled)) in
               pi.(t) <- pi.(t) + 1;
               walk (Population.fire p c t) (steps - 1)
           end
         in
         walk (Population.initial_single p input) 20;
         Potential.is_potentially_realisable p pi))

(* -- Pumping -------------------------------------------------------------------- *)

let test_pumping_flock () =
  List.iter
    (fun (k, eta) ->
      let p = Flock.succinct k in
      match Pumping.find_witness p ~max_input:(eta + 8) with
      | Error e -> Alcotest.failf "succinct-%d: %s" k e
      | Ok w ->
        Alcotest.(check bool)
          (Printf.sprintf "succinct-%d: witness valid" k)
          true (Pumping.check w);
        (* Lemma 4.1's conclusion: eta <= a *)
        Alcotest.(check bool)
          (Printf.sprintf "succinct-%d: eta=%d <= a=%d" k eta w.Pumping.a)
          true (eta <= w.Pumping.a))
    [ (1, 2); (2, 4) ]

let test_pumping_with_leaders () =
  (* Section 4 works for protocols with leaders too *)
  let p = Leader_counter.protocol 1 in
  match Pumping.find_witness p ~max_input:8 with
  | Error e -> Alcotest.fail e
  | Ok w ->
    Alcotest.(check bool) "valid" true (Pumping.check w);
    Alcotest.(check bool) "bounds eta=2" true (2 <= w.Pumping.a)

let test_pumping_sequence_properties () =
  let p = Flock.succinct 2 in
  let analysis = Stable_sets.analyse p in
  let seq = Pumping.sequence p analysis ~first:2 ~count:8 in
  Alcotest.(check int) "eight elements" 8 (List.length seq);
  let sc = Stable_sets.stable_union analysis in
  List.iter
    (fun (i, c) ->
      Alcotest.(check int) (Printf.sprintf "size of C_%d" i) i (Mset.size c);
      Alcotest.(check bool) (Printf.sprintf "C_%d stable" i) true (Downset.mem c sc))
    seq

(* -- Busy_beaver ------------------------------------------------------------------ *)

let test_bb_n1 () =
  let r = Busy_beaver.scan ~n:1 ~max_input:6 () in
  (* single state: only the identity assignment; output accept or reject *)
  Alcotest.(check int) "two protocols" 2 r.Busy_beaver.num_protocols;
  Alcotest.(check int) "best eta" 2 r.Busy_beaver.best_eta

let test_bb_n2 () =
  let r = Busy_beaver.scan ~n:2 ~max_input:10 () in
  Alcotest.(check int) "protocol count" 108 r.Busy_beaver.num_protocols;
  Alcotest.(check bool) "some thresholds" true (r.Busy_beaver.num_threshold > 0);
  (* BB(2) >= 2, and the apparent value with cutoff 10 is exactly 2 *)
  Alcotest.(check int) "BB(2) apparent" 2 r.Busy_beaver.best_eta;
  Alcotest.(check bool) "witness present" true (r.Busy_beaver.best <> None)

let test_bb_sampled_n3 () =
  let r = Busy_beaver.scan ~n:3 ~max_input:10 ~sample:(400, 7) () in
  Alcotest.(check int) "sample size" 400 r.Busy_beaver.num_protocols;
  Alcotest.(check bool) "histogram consistent" true
    (List.fold_left (fun acc (_, c) -> acc + c) 0 r.Busy_beaver.histogram
     = r.Busy_beaver.num_threshold)

let test_bb_counts () =
  Alcotest.(check int) "n=1" 2 (Busy_beaver.num_deterministic_protocols 1);
  Alcotest.(check int) "n=2" 108 (Busy_beaver.num_deterministic_protocols 2);
  Alcotest.(check int) "n=3" (46656 * 8) (Busy_beaver.num_deterministic_protocols 3)

(* -- Section 4.1's f ------------------------------------------------------------------ *)

let test_f_min_accepting () =
  (* flock-succinct-2 first reaches an all-accepting configuration at
     input 4 (all agents can become v4 once the threshold is met) *)
  Alcotest.(check (option int)) "flock" (Some 4)
    (Section_4_1.min_accepting_input (Flock.succinct 2) ~max_input:10);
  (* a protocol with no accepting state never accepts *)
  let p =
    Population.complete
      (Population.make ~name:"never" ~states:[| "x" |] ~transitions:[]
         ~inputs:[ ("x", 0) ]
         ~output:[| false |] ())
  in
  Alcotest.(check (option int)) "no accepting state" None
    (Section_4_1.min_accepting_input p ~max_input:6);
  (* flock-succinct-6 has 8 states, one more than a packed configuration
     holds, so its summaries come from the multiset graph *)
  let p = Flock.succinct 6 in
  Alcotest.(check (option int)) "flock-succinct-6, multiset graphs" (Some 64)
    (Section_4_1.min_accepting_input p ~max_input:64);
  Alcotest.(check (option int)) "flock-succinct-6 = oracle"
    (Section_4_1_oracle.min_accepting_input p ~max_input:64)
    (Section_4_1.min_accepting_input p ~max_input:64);
  (* a support bitmask has one bit per state: 63 states do not fit *)
  let p =
    Population.complete
      (Population.make ~name:"wide"
         ~states:(Array.init 63 (Printf.sprintf "s%d"))
         ~transitions:[] ~inputs:[ ("x", 0) ]
         ~output:(Array.init 63 (fun s -> s = 0)) ())
  in
  Alcotest.check_raises "too many states for a support mask"
    (Invalid_argument "Fair_semantics.summarise: too many states for a support mask")
    (fun () -> ignore (Section_4_1.min_accepting_input p ~max_input:3))

(* Section 4.1's f is the census driver under the All_1 analysis *)
let f_scan ?max_configs ?max_input ~n () =
  Busy_beaver.scan ~analysis:All_1 ?max_configs ?max_input ~n ()

(* what the oracle returns: (never reach All_1, aborted, histogram) *)
let f_counts (r : Busy_beaver.scan_result) =
  (r.Busy_beaver.num_reject_all, r.Busy_beaver.num_aborted, r.Busy_beaver.histogram)

let test_f_scan () =
  let r = f_scan ~n:2 ~max_input:10 () in
  Alcotest.(check int) "space size" 108 r.Busy_beaver.num_protocols;
  Alcotest.(check int) "f(2) apparent" 2 r.Busy_beaver.best_eta;
  Alcotest.(check int) "histogram total" (108 - r.Busy_beaver.num_reject_all)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 r.Busy_beaver.histogram)

let test_f_dominates_busy_beaver () =
  (* For a threshold protocol, the minimum input reaching All_1 is
     exactly its threshold, so f-scan >= BB-scan on the same space. *)
  let f = f_scan ~n:2 ~max_input:10 () in
  let bb = Busy_beaver.scan ~n:2 ~max_input:10 () in
  Alcotest.(check bool) "f >= BB" true
    (f.Busy_beaver.best_eta >= bb.Busy_beaver.best_eta)

(* An exploration over its node budget leaves the answer unknown: it is
   counted apart, never as "never reaches All_1". With a budget of 2
   nodes, 27 of the 108 two-state protocols have no output-1 state, 9
   others explore every input within budget without reaching All_1, 24
   abort, and 48 reach All_1 at input 2. *)
let test_f_aborts_counted_apart () =
  let r = f_scan ~n:2 ~max_configs:2 () in
  Alcotest.(check int) "space size" 108 r.Busy_beaver.num_protocols;
  Alcotest.(check int) "never reach All_1" 36 r.Busy_beaver.num_reject_all;
  Alcotest.(check int) "aborted" 24 r.Busy_beaver.num_aborted;
  Alcotest.(check (list (pair int int))) "histogram" [ (2, 48) ]
    r.Busy_beaver.histogram;
  Alcotest.(check (triple int int (list (pair int int)))) "oracle agrees"
    (Section_4_1_oracle.scan ~max_configs:2 ~n:2 ())
    (f_counts r)

(* The pruned, assignment-major scan against the protocol-by-protocol
   multiset oracle, on every protocol with n <= 2, at two cutoffs. *)
let test_f_scan_matches_oracle () =
  List.iter
    (fun (n, max_input) ->
      let r = f_scan ~n ~max_input () in
      let unreachable, aborted, hist = Section_4_1_oracle.scan ~max_input ~n () in
      let label = Printf.sprintf "n=%d max_input=%d" n max_input in
      Alcotest.(check (triple int int (list (pair int int)))) label
        (unreachable, aborted, hist) (f_counts r);
      Alcotest.(check int) (label ^ " max_f")
        (List.fold_left (fun m (i, _) -> Stdlib.max m i) 0 hist)
        r.Busy_beaver.best_eta)
    [ (1, 12); (2, 12); (2, 5) ];
  for assignment = 0 to Busy_beaver.num_assignments 2 - 1 do
    for output_bits = 0 to 3 do
      let p = Busy_beaver.protocol_of_code ~n:2 ~assignment ~output_bits in
      Alcotest.(check (option int)) p.Population.name
        (Section_4_1_oracle.min_accepting_input p ~max_input:12)
        (Section_4_1.min_accepting_input p ~max_input:12)
    done
  done

(* At n <= 2 the symmetry group is trivial; at n = 3 it is S_2, so this
   is where orbit weights carry f's counts. A 6-node budget keeps the
   oracle's 373,248 protocols cheap and makes 13% of them abort, so the
   aborted count is weighted too. *)
let test_f_orbit_weights_n3 () =
  let r = f_scan ~n:3 ~max_configs:6 () in
  Alcotest.(check (triple int int (list (pair int int)))) "oracle agrees"
    (Section_4_1_oracle.scan ~max_configs:6 ~n:3 ())
    (f_counts r);
  Alcotest.(check int) "every code counted once" 373_248
    (r.Busy_beaver.num_reject_all + r.Busy_beaver.num_aborted
     + r.Busy_beaver.num_threshold)

let f_oracle_n3_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"min accepting input = multiset oracle on n=3 codes"
       ~count:300
       QCheck.(pair (int_range 0 46655) (int_range 0 7))
       (fun (assignment, output_bits) ->
         let p = Busy_beaver.protocol_of_code ~n:3 ~assignment ~output_bits in
         Section_4_1.min_accepting_input p ~max_input:12
         = Section_4_1_oracle.min_accepting_input p ~max_input:12))

(* -- State_complexity ---------------------------------------------------------------- *)

let test_state_counts () =
  Alcotest.(check int) "unary" 6 (State_complexity.states_unary 5);
  Alcotest.(check int) "binary matches construction"
    (Population.num_states (Threshold.binary 1000))
    (State_complexity.states_binary 1000);
  Alcotest.(check bool) "upper bound is the min" true
    (State_complexity.state_upper_bound 1000 <= State_complexity.states_binary 1000)

let test_bb_lower () =
  Alcotest.(check int) "n=3" 2 (State_complexity.busy_beaver_lower 3);
  Alcotest.(check int) "n=4" 4 (State_complexity.busy_beaver_lower 4);
  Alcotest.(check int) "n=10" 256 (State_complexity.busy_beaver_lower 10);
  (* witnessed: succinct flock with n states computes x >= 2^(n-2) *)
  let n = 6 in
  let p = Flock.succinct (n - 2) in
  Alcotest.(check int) "witness states" n (Population.num_states p);
  match Eta_search.find p ~max_input:20 with
  | Eta_search.Eta eta ->
    Alcotest.(check int) "witness eta" (State_complexity.busy_beaver_lower n) eta
  | r -> Alcotest.failf "witness: %a" Eta_search.pp_result r

let test_loglog () =
  Alcotest.(check int) "small eta needs >= 1" 1 (State_complexity.loglog_lower_bound 2);
  (* bits(max_int) = 63 exceeds (2·1+2)! = 24 but not 6! = 720 *)
  Alcotest.(check int) "max_int eta still tiny" 2
    (State_complexity.loglog_lower_bound max_int)

let () =
  Alcotest.run "core"
    [
      ( "saturation",
        [
          Alcotest.test_case "flock family" `Quick test_saturation_flock;
          Alcotest.test_case "catalog protocols" `Quick test_saturation_various;
          Alcotest.test_case "rejects leaders" `Quick test_saturation_rejects_leaders;
          Alcotest.test_case "dead states" `Quick test_saturation_dead_state;
          Alcotest.test_case "scaling" `Quick test_saturation_scaling;
          Alcotest.test_case "coverable support" `Quick test_coverable_support;
        ] );
      ( "potential",
        [
          Alcotest.test_case "system shape" `Quick test_potential_system_shape;
          Alcotest.test_case "membership" `Quick test_potential_membership;
          Alcotest.test_case "corollary 5.7" `Quick test_potential_basis_corollary;
          Alcotest.test_case "decompose" `Quick test_potential_decompose;
          Alcotest.test_case "rejects leaders" `Quick test_potential_rejects_leaders;
          potential_necessity_prop;
        ] );
      ( "pumping",
        [
          Alcotest.test_case "flock witnesses" `Quick test_pumping_flock;
          Alcotest.test_case "with leaders" `Quick test_pumping_with_leaders;
          Alcotest.test_case "sequence" `Quick test_pumping_sequence_properties;
        ] );
      ( "busy-beaver",
        [
          Alcotest.test_case "n=1" `Quick test_bb_n1;
          Alcotest.test_case "n=2" `Quick test_bb_n2;
          Alcotest.test_case "n=3 sampled" `Quick test_bb_sampled_n3;
          Alcotest.test_case "protocol counts" `Quick test_bb_counts;
        ] );
      ( "section-4-1",
        [
          Alcotest.test_case "min accepting input" `Quick test_f_min_accepting;
          Alcotest.test_case "f scan" `Quick test_f_scan;
          Alcotest.test_case "f dominates BB" `Quick test_f_dominates_busy_beaver;
          Alcotest.test_case "budget aborts counted apart" `Quick
            test_f_aborts_counted_apart;
          Alcotest.test_case "scan = multiset oracle (n <= 2)" `Quick
            test_f_scan_matches_oracle;
          Alcotest.test_case "n=3 orbit weights = multiset oracle" `Quick
            test_f_orbit_weights_n3;
          f_oracle_n3_prop;
        ] );
      ( "state-complexity",
        [
          Alcotest.test_case "state counts" `Quick test_state_counts;
          Alcotest.test_case "busy beaver lower" `Quick test_bb_lower;
          Alcotest.test_case "loglog bound" `Quick test_loglog;
        ] );
    ]
