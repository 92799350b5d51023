(* ppverify: decide protocol outputs exactly (bottom-SCC fairness
   semantics) and determine thresholds.

     ppverify --protocol flock-succinct-3 --max-input 20
     ppverify --file my.pp --input 7 *)

let print_witness p v =
  let src = Population.initial_config p v in
  match
    Witness.find p ~src ~target:(fun c ->
        Population.output_of_config p c = Some true)
  with
  | Some (sigma, c) ->
    Format.printf "shortest trace to an accepting configuration (%d steps):@."
      (List.length sigma);
    Format.printf "%a@." (Witness.pp_trace p) sigma;
    Format.printf "reached: %a@." (Population.pp_config p) c
  | None -> Format.printf "no accepting configuration is reachable@."

let run name file input max_input max_configs witness jobs stable () =
  match Catalog.load ~name ~file with
  | Error e ->
    prerr_endline e;
    1
  | Ok p ->
    (match input with
     | Some s ->
       let parts = List.filter_map int_of_string_opt (String.split_on_char ',' s) in
       let v = Array.of_list parts in
       (try
          Format.printf "input %s: %a@." s Fair_semantics.pp_verdict
            (Fair_semantics.decide ~max_configs p v);
          if witness then print_witness p v;
          0
        with
        | Configgraph.Too_many_configs n ->
          Format.printf "input %s: unknown (state space exceeds %d configurations)@."
            s n;
          0
        | Invalid_argument msg ->
          prerr_endline msg;
          1)
     | None ->
       if Array.length p.Population.input_vars <> 1 then begin
         prerr_endline "threshold search requires a single-input protocol; use --input";
         1
       end
       else begin
         try
           (match Eta_search.find ~max_configs ~jobs
                    ~stable:(if stable then `Memo else `Off) p ~max_input with
            | Eta_search.Eta eta ->
              Format.printf "threshold protocol: eta = %d (inputs up to %d)@." eta max_input
            | r -> Format.printf "%a@." Eta_search.pp_result r);
           0
         with
         | Configgraph.Too_many_configs n ->
           Format.printf
             "threshold unknown (state space exceeds %d configurations; lower --max-input)@."
             n;
           0
       end)

open Cmdliner

let name_arg =
  Arg.(value & opt (some string) None & info [ "p"; "protocol" ] ~docv:"NAME"
         ~doc:("Catalog protocol name: " ^ Catalog.names_help))

let file_arg =
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE"
         ~doc:"Protocol description file.")

let input_arg =
  Arg.(value & opt (some string) None & info [ "i"; "input" ] ~docv:"INTS"
         ~doc:"Decide this single input instead of searching for a threshold.")

let max_input_arg =
  Arg.(value & opt int 16 & info [ "max-input" ] ~doc:"Threshold search cutoff.")

let max_configs_arg =
  Arg.(value & opt int 2_000_000 & info [ "max-configs" ]
         ~doc:"Exploration budget per input.")

let witness_arg =
  Arg.(value & flag & info [ "w"; "witness" ]
         ~doc:"With --input: print a shortest trace to an accepting configuration.")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for the parallel verification paths (threshold \
               search with --stable-sets). Results are identical for any \
               value.")

let stable_arg =
  Arg.(value & flag & info [ "stable-sets" ]
         ~doc:"During threshold search, decide inputs whose initial \
               configuration already lies in a stable set (Definition 2) \
               without exploring their configuration graph; the stable-set \
               analysis is computed once and memoized.")

let cmd =
  Cmd.v
    (Cmd.info "ppverify" ~doc:"Exact verification of population protocols")
    Term.(
      const run $ name_arg $ file_arg $ input_arg $ max_input_arg
      $ max_configs_arg $ witness_arg $ jobs_arg $ stable_arg
      $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
