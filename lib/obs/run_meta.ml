type t = {
  git_rev : string;
  hostname : string;
  ocaml_version : string;
  jobs : int;
  timestamp : string;
}

(* ------------------------------------------------------------ collect *)

(* Resolve HEAD by reading .git directly (walking up from the cwd):
   no subprocess, works from the dune build sandbox, and degrades to
   "unknown" outside a checkout. *)

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> Some (String.trim contents)
  | exception Sys_error _ -> None

let find_git_dir () =
  let rec go dir depth =
    if depth > 16 then None
    else
      let cand = Filename.concat dir ".git" in
      if Sys.file_exists cand && Sys.is_directory cand then Some cand
      else
        let parent = Filename.dirname dir in
        if parent = dir then None else go parent (depth + 1)
  in
  match Sys.getcwd () with
  | cwd -> go cwd 0
  | exception Sys_error _ -> None

let resolve_ref git_dir ref_name =
  match read_file (Filename.concat git_dir ref_name) with
  | Some hash -> Some hash
  | None ->
    (* fall back to packed-refs: "<hash> <refname>" lines *)
    (match read_file (Filename.concat git_dir "packed-refs") with
     | None -> None
     | Some packed ->
       String.split_on_char '\n' packed
       |> List.find_map (fun line ->
              match String.index_opt line ' ' with
              | Some i
                when String.sub line (i + 1) (String.length line - i - 1)
                     = ref_name ->
                Some (String.sub line 0 i)
              | _ -> None))

let git_rev () =
  match find_git_dir () with
  | None -> "unknown"
  | Some git_dir ->
    (match read_file (Filename.concat git_dir "HEAD") with
     | None -> "unknown"
     | Some head ->
       let prefix = "ref: " in
       if String.length head > String.length prefix
          && String.sub head 0 (String.length prefix) = prefix
       then
         let ref_name =
           String.sub head (String.length prefix)
             (String.length head - String.length prefix)
         in
         Option.value ~default:"unknown" (resolve_ref git_dir ref_name)
       else head (* detached HEAD: the hash itself *))

let iso8601_utc t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let collect ?jobs () =
  let jobs =
    match jobs with Some j -> j | None -> Domain.recommended_domain_count ()
  in
  {
    git_rev = git_rev ();
    hostname =
      (try Unix.gethostname () with Unix.Unix_error _ -> "unknown");
    ocaml_version = Sys.ocaml_version;
    jobs;
    timestamp = iso8601_utc (Unix.gettimeofday ());
  }

(* --------------------------------------------------------------- JSON *)

let to_json m =
  Json.Obj
    [
      ("git_rev", Json.String m.git_rev);
      ("hostname", Json.String m.hostname);
      ("ocaml_version", Json.String m.ocaml_version);
      ("jobs", Json.Int m.jobs);
      ("timestamp", Json.String m.timestamp);
    ]

let of_json j =
  let open Json.Decode in
  Result.map_error (( ^ ) "meta: ")
    (let* git_rev = field "git_rev" string j in
     let* hostname = field "hostname" string j in
     let* ocaml_version = field "ocaml_version" string j in
     let* timestamp = field "timestamp" string j in
     let* jobs = field "jobs" int j in
     Ok { git_rev; hostname; ocaml_version; jobs; timestamp })

let to_text m =
  Printf.sprintf "rev %s · %s · OCaml %s · %d jobs · %s" m.git_rev m.hostname
    m.ocaml_version m.jobs m.timestamp
