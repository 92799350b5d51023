(* Population protocols as chemical reaction networks (the paper's
   introduction: agents are molecules, interactions are collisions).

   We model a well-mixed solution in which a substrate S is converted
   into product P by collisions with a catalyst molecule C, and ask the
   "chemical" question: does the solution eventually signal that the
   substrate concentration passed a threshold?

   Species:
     S  substrate          C  catalyst
     P  product            F  fluorescent marker (the signal)

   Reactions (pairwise collisions):
     S + C  -> P + C       catalysis
     P + P  -> D2 + W      product dimerises (two P make a dimer D2,
     D2 + D2 -> D4 + W      dimers pair up to D4 — binary counting!)
     D4 + X -> F + F        once a D4 exists, everything it touches
                            fluoresces, and fluorescence spreads.

   This is exactly a succinct threshold protocol in disguise: the dimer
   cascade counts product molecules in binary, so ~log2(threshold)
   species suffice — the chemical reading of the paper's state
   complexity question (the number of states is the number of species
   one must synthesise).

     dune exec examples/chemical_reactions.exe *)

let solution_protocol () =
  (* species indices *)
  let s = 0 and c = 1 and p = 2 and d2 = 3 and d4 = 4 and w = 5 and f = 6 in
  let states = [| "S"; "C"; "P"; "D2"; "D4"; "W"; "F" |] in
  let transitions =
    [
      (s, c, p, c);     (* catalysis *)
      (p, p, d2, w);    (* dimerisation *)
      (d2, d2, d4, w);  (* tetramerisation *)
      (* fluorescence spreads from any D4 *)
      (d4, s, f, f); (d4, c, f, f); (d4, p, f, f); (d4, d2, f, f);
      (d4, d4, f, f); (d4, w, f, f);
      (f, s, f, f); (f, c, f, f); (f, p, f, f); (f, d2, f, f);
      (f, d4, f, f); (f, w, f, f);
    ]
  in
  let output = Array.map (fun n -> n = "F") states in
  Population.complete
    (Population.make ~name:"substrate-sensor" ~states ~transitions
       ~inputs:[ ("substrate", s); ("catalyst", c) ]
       ~output ())

let () =
  let p = solution_protocol () in
  Format.printf "%a@." Population.pp p;

  (* With one catalyst molecule, the solution fluoresces iff at least
     four substrate molecules are present (4 P -> 2 D2 -> 1 D4). *)
  Format.printf "exact verdicts (substrate molecules, 1 catalyst):@.";
  List.iter
    (fun n ->
      Format.printf "  %d substrate: %a@." n Fair_semantics.pp_verdict
        (Fair_semantics.decide p [| n; 1 |]))
    [ 2; 3; 4; 5; 9 ];

  (* The verdict is independent of the catalyst count (catalysts are
     conserved): *)
  Format.printf "catalyst count does not matter:@.";
  List.iter
    (fun cat ->
      Format.printf "  4 substrate + %d catalyst: %a@." cat
        Fair_semantics.pp_verdict
        (Fair_semantics.decide p [| 4; cat |]))
    [ 1; 2; 5 ];

  (* Gillespie-flavoured stochastic runs: how long until fluorescence,
     in parallel time (proportional to physical time in a well-mixed
     solution)? *)
  Format.printf "time to fluorescence (20 substrate + 2 catalyst):@.";
  let ts =
    Ensemble.parallel_times (Ensemble.run_input ~jobs:1 ~seed:31 ~trials:8 p [| 20; 2 |])
  in
  Format.printf "  %s@." (Stats.summary ts);

  (* The stable sets tell the chemist which mixtures are inert: *)
  let a = Stable_sets.analyse p in
  Format.printf "@.inert (0-stable) mixtures — no fluorescence, ever: %a@."
    (Downset.pp ~names:p.Population.states)
    (Stable_sets.stable a false)
