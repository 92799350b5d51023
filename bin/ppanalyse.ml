(* ppanalyse: run the paper's Section 3-5 machinery on a protocol —
   stable-set bases, saturation witness, Pottier basis, pumping witness
   and the full Lemma 5.2 certificate.

     ppanalyse --protocol flock-succinct-2
     ppanalyse --file my.pp --max-input 14 *)

let run name file max_input jobs () =
  match Catalog.load ~name ~file with
  | Error e ->
    prerr_endline e;
    1
  | Ok p ->
    let names = p.Population.states in
    Format.printf "%a@." Population.pp p;

    Format.printf "@.-- stable sets (Definition 2, Lemma 3.2) --@.";
    let analysis = Stable_sets.analyse ~jobs p in
    Format.printf "%a@." Stable_sets.pp_summary analysis;
    Format.printf "SC_0 = %a@." (Downset.pp ~names) analysis.Stable_sets.stable0;
    Format.printf "SC_1 = %a@." (Downset.pp ~names) analysis.Stable_sets.stable1;

    Format.printf "@.-- parametric coverability (Karp–Miller clover over all inputs) --@.";
    (match Karp_miller.clover_parametric ~max_nodes:200_000 p with
     | vectors ->
       List.iter
         (fun v -> Format.printf "  %a@." (Omega_vec.pp ~names) v)
         vectors
     | exception Obs.Budget.Exceeded info ->
       Format.printf "  incomplete: %s@." (Obs.Budget.describe info);
       (match info.Obs.Budget.partial with
        | Karp_miller.Partial_clover vectors ->
          Format.printf "  partial clover (under-approximation, %d vectors):@."
            (List.length vectors);
          List.iter
            (fun v -> Format.printf "  %a@." (Omega_vec.pp ~names) v)
            vectors
        | _ -> ()));

    if Population.is_leaderless p && Array.length p.Population.input_vars = 1
    then begin
      Format.printf "@.-- saturation (Lemma 5.4) --@.";
      (match Saturation.find p with
       | Ok w ->
         Format.printf "input 3^%d = %d reaches %a via %d transitions (valid: %b)@."
           w.Saturation.levels w.Saturation.input (Mset.pp ~names)
           w.Saturation.result
           (List.length w.Saturation.sigma)
           (Saturation.check w)
       | Error msg -> Format.printf "saturation: %s@." msg);

      Format.printf "@.-- potentially realisable multisets (Cor. 5.7) --@.";
      let basis = Potential.basis ~jobs p in
      Format.printf "Pottier basis: %d elements; Corollary 5.7 bounds hold: %b@."
        (List.length basis)
        (Potential.check_corollary_5_7 p basis);

      Format.printf "@.-- Lemma 5.2 certificate --@.";
      match Certificate.construct p with
      | Ok cert ->
        Format.printf "%a@.validates: %b@." Certificate.pp cert (Certificate.check cert)
      | Error msg -> Format.printf "certificate: %s@." msg
    end;

    if Array.length p.Population.input_vars = 1 then begin
      Format.printf "@.-- pumping witness (Section 4) --@.";
      (match Pumping.find_witness p ~max_input with
       | Ok w -> Format.printf "%a@.validates: %b@." Pumping.pp w (Pumping.check w)
       | Error msg -> Format.printf "pumping: %s@." msg);

      Format.printf "@.-- exact threshold --@.";
      match Eta_search.find p ~max_input with
      | r -> Format.printf "%a@." Eta_search.pp_result r
    end;
    0

open Cmdliner

let name_arg =
  Arg.(value & opt (some string) None & info [ "p"; "protocol" ] ~docv:"NAME"
         ~doc:("Catalog protocol name: " ^ Catalog.names_help))

let file_arg =
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE"
         ~doc:"Protocol description file.")

let max_input_arg =
  Arg.(value & opt int 12 & info [ "max-input" ] ~doc:"Search cutoff.")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for the stable-set fixpoints and the Pottier \
               basis completion. Results are identical for any value.")

let cmd =
  Cmd.v
    (Cmd.info "ppanalyse" ~doc:"State-complexity analysis of a population protocol")
    Term.(const run $ name_arg $ file_arg $ max_input_arg $ jobs_arg
          $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
