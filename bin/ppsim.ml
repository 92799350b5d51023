(* ppsim: simulate a population protocol, batching independent trials
   through the multicore Monte-Carlo ensemble engine.

     ppsim --protocol flock-succinct-3 --input 20 --trials 200 --jobs 4 --seed 7
     ppsim --file my_protocol.pp --input 10,3 --backend gillespie

   The aggregate summary on stdout is byte-identical for any --jobs
   value (trial i always runs on the i-th split of the seed); only the
   wall-clock line on stderr varies. *)

let parse_input p s =
  let parts = String.split_on_char ',' s in
  match List.map int_of_string_opt parts with
  | ints when List.for_all Option.is_some ints ->
    let v = Array.of_list (List.map Option.get ints) in
    if Array.length v = Array.length p.Population.input_vars then Ok v
    else
      Error
        (Printf.sprintf "protocol expects %d input variables"
           (Array.length p.Population.input_vars))
  | _ -> Error "inputs must be comma-separated integers"

let parse_backend name max_steps quiet rate =
  match name with
  | "uniform" -> Ok (Ensemble.uniform ~max_steps ~quiet_window:quiet ())
  | "gillespie" -> Ok (Ensemble.gillespie ~max_steps ~quiet_time:quiet ~rate ())
  | s -> Error (Printf.sprintf "unknown backend %S (expected: uniform, gillespie)" s)

let run name file input trials jobs backend_name seed max_steps quiet rate verbose () =
  match Catalog.load ~name ~file with
  | Error e ->
    prerr_endline e;
    1
  | Ok p ->
    (match parse_input p input with
     | Error e ->
       prerr_endline e;
       1
     | Ok v ->
       (match parse_backend backend_name max_steps quiet rate with
        | Error e ->
          prerr_endline e;
          1
        | Ok backend ->
          if verbose then Format.printf "%a@." Population.pp p;
          let e = Ensemble.run_input ~jobs ~backend ~seed ~trials p v in
          if trials <= 20 || verbose then
            Array.iter
              (fun t ->
                Format.printf "trial %d: output=%s steps=%d parallel-time=%.2f %s@."
                  t.Ensemble.index
                  (match t.Ensemble.output with
                   | Some b -> string_of_int (Bool.to_int b)
                   | None -> "undefined")
                  t.Ensemble.steps t.Ensemble.parallel_time
                  (if t.Ensemble.converged then "" else "(step budget exhausted)"))
              e.Ensemble.trials;
          print_string (Ensemble.summary e);
          Printf.eprintf "wall-clock %.3fs on %d domain%s\n%!" e.Ensemble.wall
            e.Ensemble.jobs
            (if e.Ensemble.jobs = 1 then "" else "s");
          0))

open Cmdliner

let name_arg =
  Arg.(value & opt (some string) None & info [ "p"; "protocol" ] ~docv:"NAME"
         ~doc:("Catalog protocol name: " ^ Catalog.names_help))

let file_arg =
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE"
         ~doc:"Protocol description file (see Protocol_syntax).")

let input_arg =
  Arg.(value & opt string "10" & info [ "i"; "input" ] ~docv:"INTS"
         ~doc:"Comma-separated input counts, one per input variable.")

let trials_arg =
  Arg.(value & opt int 3 & info [ "n"; "trials"; "r"; "runs" ]
         ~doc:"Independent trials in the ensemble.")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ]
         ~doc:"Domains to fan the trials across. The aggregate summary \
               is byte-identical for any value; only wall-clock varies.")

let backend_arg =
  Arg.(value & opt string "uniform" & info [ "b"; "backend" ] ~docv:"NAME"
         ~doc:"Simulation backend: uniform (discrete scheduler) or \
               gillespie (continuous-time SSA).")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

let steps_arg =
  Arg.(value & opt int 50_000_000 & info [ "max-steps" ] ~doc:"Interaction budget.")

let quiet_arg =
  Arg.(value & opt float 64.0 & info [ "quiet-window" ]
         ~doc:"Parallel time without an output change before declaring convergence.")

let rate_arg =
  Arg.(value & opt float 1.0 & info [ "rate" ]
         ~doc:"Reaction rate constant (gillespie backend only).")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the protocol.")

let cmd =
  Cmd.v
    (Cmd.info "ppsim" ~doc:"Simulate a population protocol")
    Term.(
      const run $ name_arg $ file_arg $ input_arg $ trials_arg $ jobs_arg
      $ backend_arg $ seed_arg $ steps_arg $ quiet_arg $ rate_arg $ verbose_arg
      $ Obs_cli.term)

let () = exit (Cmd.eval' cmd)
