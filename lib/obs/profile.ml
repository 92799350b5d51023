type state = {
  stop_requested : bool Atomic.t;
  sampler : Thread.t;
  path : string;
  interval_s : float;
}

let current : state option ref = ref None

(* Written only by the sampler thread while it runs, read after the
   join — but exposed live (via the atomic counter) so tests can wait
   for samples to land without sleeping a fixed amount. *)
let samples_taken = Atomic.make 0
let samples () = Atomic.get samples_taken

let fold_stack dom names =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "domain";
  Buffer.add_string buf (string_of_int dom);
  List.iter
    (fun n ->
      Buffer.add_char buf ';';
      (* the folded format is line- and [" count"]-delimited; span
         names are dotted identifiers, but sanitise just in case *)
      String.iter
        (fun c -> Buffer.add_char buf (if c = ' ' || c = '\n' then '_' else c))
        n)
    names;
  Buffer.contents buf

let write_folded path counts =
  let entries = Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [] in
  let entries = List.sort compare entries in
  try
    Out_channel.with_open_bin path (fun oc ->
        List.iter
          (fun (k, n) -> Printf.fprintf oc "%s %d\n" k n)
          entries)
  with Sys_error _ -> ()

let stop () =
  match !current with
  | None -> ()
  | Some st ->
    current := None;
    Atomic.set st.stop_requested true;
    Thread.join st.sampler;
    Trace.untrack_stacks ()

let start ?(interval_s = 0.001) ~path () =
  stop ();
  let interval_s = Float.max 0.0002 interval_s in
  Trace.track_stacks ();
  Atomic.set samples_taken 0;
  let stop_requested = Atomic.make false in
  let sampler =
    (* A systhread, NOT a domain: it shares domain 0, so waking it is a
       runtime-lock handoff instead of the cross-domain GC coordination
       that makes a background domain cost 20-30% of a scan on
       single-core machines. While the main thread blocks (a pool
       driver joining its workers) the sampler runs at the requested
       rate; while the main thread is CPU-bound on the same core the
       thread tick throttles sampling to ~20 Hz — a coarser profile on
       hardware that could not afford more anyway. Worker domains are
       sampled through the shared stack registry either way. *)
    Thread.create
      (fun () ->
        let counts = Hashtbl.create 64 in
        while not (Atomic.get stop_requested) do
          Thread.delay interval_s;
          let stacks = Trace.sample_stacks () in
          if stacks <> [] then begin
            List.iter
              (fun (dom, names) ->
                let key = fold_stack dom names in
                let n =
                  match Hashtbl.find_opt counts key with
                  | Some n -> n
                  | None -> 0
                in
                Hashtbl.replace counts key (n + 1))
              stacks;
            Atomic.incr samples_taken
          end
        done;
        write_folded path counts)
      ()
  in
  current := Some { stop_requested; sampler; path; interval_s }
