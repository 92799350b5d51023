type t = {
  config_hash : string;
  config : Json.t;
  total_chunks : int;
  state : Json.t option array;
  mutable epoch : int;
}

let schema = "ppcheckpoint/v2"
let hash_config config = Digest.to_hex (Digest.string (Json.to_string config))

let create ~config ~total_chunks =
  if total_chunks < 0 then invalid_arg "Checkpoint.create: total_chunks >= 0";
  {
    config_hash = hash_config config;
    config;
    total_chunks;
    state = Array.make total_chunks None;
    epoch = 0;
  }

let check_index who t i =
  if i < 0 || i >= t.total_chunks then
    invalid_arg (Printf.sprintf "Checkpoint.%s: chunk %d of %d" who i t.total_chunks)

let mark_done t i state =
  check_index "mark_done" t i;
  t.state.(i) <- Some state

let is_done t i =
  check_index "is_done" t i;
  t.state.(i) <> None

let chunk_state t i =
  check_index "chunk_state" t i;
  t.state.(i)

let num_done t =
  Array.fold_left (fun n s -> if s = None then n else n + 1) 0 t.state

let epoch t = t.epoch

let bump_epoch t =
  t.epoch <- t.epoch + 1;
  t.epoch

(* ------------------------------------------------------- config mismatch *)

type field_diff = {
  field : string;
  expected : string option;  (** in the running scan's configuration *)
  found : string option;  (** in the snapshot on disk *)
}

exception Mismatch of { path : string; diff : field_diff list }

(* Field-by-field diff of two configuration objects, rendered as JSON
   snippets. Non-object configurations degrade to a single whole-value
   entry; equal fields are omitted. *)
let config_diff ~expected ~found =
  match (expected, found) with
  | Json.Obj evs, Json.Obj fvs ->
    let keys =
      List.map fst evs @ List.filter (fun k -> not (List.mem_assoc k evs)) (List.map fst fvs)
    in
    List.filter_map
      (fun k ->
        let e = List.assoc_opt k evs and f = List.assoc_opt k fvs in
        if e = f then None
        else
          Some
            {
              field = k;
              expected = Option.map Json.to_string e;
              found = Option.map Json.to_string f;
            })
      keys
  | e, f ->
    if e = f then []
    else
      [
        {
          field = "config";
          expected = Some (Json.to_string e);
          found = Some (Json.to_string f);
        };
      ]

let mismatch_message ~path diff =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "checkpoint %s was written by a different scan configuration:" path);
  if diff = [] then
    Buffer.add_string b " (configurations hash differently but no field-level \
                         diff is available)"
  else
    List.iter
      (fun d ->
        Buffer.add_string b
          (Printf.sprintf "\n  %-16s run has %s, snapshot has %s" d.field
             (Option.value ~default:"(absent)" d.expected)
             (Option.value ~default:"(absent)" d.found)))
      diff;
  Buffer.contents b

let () =
  Printexc.register_printer (function
    | Mismatch { path; diff } -> Some (mismatch_message ~path diff)
    | _ -> None)

(* ----------------------------------------------------------------- JSON *)

let to_json t =
  let chunks =
    Array.to_list t.state
    |> List.mapi (fun i s -> (i, s))
    |> List.filter_map (fun (i, s) ->
           Option.map
             (fun state ->
               Json.Obj [ ("index", Json.Int i); ("state", state) ])
             s)
  in
  Json.Obj
    [
      ("schema", Json.String schema);
      ("config_hash", Json.String t.config_hash);
      ("config", t.config);
      ("total_chunks", Json.Int t.total_chunks);
      ("epoch", Json.Int t.epoch);
      ("chunks", Json.List chunks);
    ]

module D = Json.Decode

let in_range what ~hi i =
  if i >= 0 && i <= hi then Ok i
  else Error (Printf.sprintf "%s %d out of range" what i)

(* What a ledger says about the scan that wrote it, read before anything
   is sized by [total_chunks]: that count comes from outside bytes *)
let header j =
  let ( let* ) = Result.bind in
  let* () = D.schema schema j in
  let* config_hash = D.field "config_hash" D.string j in
  let* config = D.field "config" Result.ok j in
  let* total_chunks =
    Result.bind (D.field "total_chunks" D.int j)
      (in_range "total_chunks" ~hi:Sys.max_array_length)
  in
  Ok (config_hash, config, total_chunks)

let of_json j =
  let ( let* ) = Result.bind in
  let* config_hash, config, total_chunks = header j in
  let* chunks =
    D.field "chunks"
      (D.list (fun e ->
           let* i =
             Result.bind (D.field "index" D.int e)
               (in_range "chunk index" ~hi:(total_chunks - 1))
           in
           Result.map (fun v -> (i, v)) (D.field "state" Result.ok e)))
      j
  in
  let* epoch =
    Result.bind (D.field "epoch" D.int j) (in_range "epoch" ~hi:max_int)
  in
  let state = Array.make total_chunks None in
  List.iter (fun (i, v) -> state.(i) <- Some v) chunks;
  Ok { config_hash; config; total_chunks; state; epoch }

(* ----------------------------------------------------------------- file *)

(* tmp + rename in the destination directory (the Export pattern): a
   crash mid-write leaves the previous snapshot intact, and a reader
   never sees a torn file *)
let save ~path t =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (Json.to_string (to_json t));
      Out_channel.output_char oc '\n');
  Sys.rename tmp path

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> Json.parse contents

let load path = Result.bind (parse_file path) of_json

let open_or_resume ~path ~resume ~config ~total_chunks =
  if resume && Sys.file_exists path then begin
    let refuse msg =
      invalid_arg
        (Printf.sprintf "Checkpoint.open_or_resume: cannot resume from %s: %s"
           path msg)
    in
    let j = match parse_file path with Ok j -> j | Error msg -> refuse msg in
    (match header j with
     | Error msg -> refuse msg
     | Ok (hash, found, count) ->
       if hash <> hash_config config || count <> total_chunks then
         (* a typed error with a field-level diff: the user learns which
            flag changed, not just that two hashes differ; the chunk
            count is diffed as one more field *)
         let with_count n = function
           | Json.Obj fields ->
             Json.Obj (fields @ [ ("total_chunks", Json.Int n) ])
           | config -> config
         in
         raise
           (Mismatch
              {
                path;
                diff =
                  config_diff ~expected:(with_count total_chunks config)
                    ~found:(with_count count found);
              }));
    match of_json j with Ok c -> (c, true) | Error msg -> refuse msg
  end
  else (create ~config ~total_chunks, false)

(* --------------------------------------------------------------- writer *)

type writer = {
  t : t;
  path : string option;
  every_chunks : int;
  every_s : float;
  lock : Mutex.t;
  mutable pending : int;
  mutable last_write_ns : int64;
}

let writer ?(every_chunks = 64) ?(every_s = 30.0) ?path t =
  {
    t;
    path;
    every_chunks = Stdlib.max 1 every_chunks;
    every_s = Float.max 0.05 every_s;
    lock = Mutex.create ();
    pending = 0;
    last_write_ns = Clock.now_ns ();
  }

let locked w f =
  Mutex.lock w.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.lock) f

(* under the lock *)
let snapshot w path =
  save ~path w.t;
  if Events.enabled () then
    Events.emit "checkpoint.snapshot"
      ~data:
        [
          ("path", Json.String path);
          ("done", Json.Int (num_done w.t));
          ("total", Json.Int w.t.total_chunks);
        ]

let note_done w i state =
  locked w (fun () ->
      mark_done w.t i state;
      match w.path with
      | None -> ()
      | Some path ->
        w.pending <- w.pending + 1;
        let now = Clock.now_ns () in
        if
          w.pending >= w.every_chunks
          || Clock.ns_to_s (Int64.sub now w.last_write_ns) >= w.every_s
        then begin
          (* a full disk must not kill the scan; the data survives in
             the ledger and the next snapshot can still succeed *)
          (try snapshot w path with Sys_error _ -> ());
          w.pending <- 0;
          w.last_write_ns <- now
        end)

let flush w =
  match w.path with
  | None -> ()
  | Some path ->
    locked w (fun () ->
        snapshot w path;
        w.pending <- 0;
        w.last_write_ns <- Clock.now_ns ())
