(* Tests for the distributed scan stack: the wire protocol round-trips
   through arbitrary packet fragmentation, the lease table's
   grant/complete/reassign bookkeeping is exact, only the current
   frame and ledger formats decode, and — the contract everything else
   exists for —
   a scan distributed across workers that die at random moments merges
   to the byte-identical single-process result. The simulation props
   drive the exact code the real coordinator runs (Dist.Lease +
   Busy_beaver.scan_chunk); a separate smoke test forks real worker
   processes through Distributed_scan. *)

let prop name ?(count = 50) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let result_eq (a : Busy_beaver.scan_result) (b : Busy_beaver.scan_result) =
  a.Busy_beaver.num_protocols = b.Busy_beaver.num_protocols
  && a.Busy_beaver.num_threshold = b.Busy_beaver.num_threshold
  && a.Busy_beaver.num_reject_all = b.Busy_beaver.num_reject_all
  && a.Busy_beaver.best_eta = b.Busy_beaver.best_eta
  && a.Busy_beaver.histogram = b.Busy_beaver.histogram
  && Option.map (fun p -> p.Population.name) a.Busy_beaver.best
     = Option.map (fun p -> p.Population.name) b.Busy_beaver.best

(* -- Wire: serialisation and framing ---------------------------------------- *)

let sample_msgs =
  [
    Dist.Wire.Hello { worker = "w1"; pid = 17; host = "node-a"; sent_s = 12.5 };
    Dist.Wire.Welcome
      {
        config = Obs.Json.Obj [ ("n", Obs.Json.Int 2) ];
        config_hash = "abc123";
        epoch = 3;
        total_chunks = 27;
        telemetry = false;
      };
    Dist.Wire.Welcome
      {
        config = Obs.Json.Obj [ ("n", Obs.Json.Int 2) ];
        config_hash = "abc123";
        epoch = 3;
        total_chunks = 27;
        telemetry = true;
      };
    Dist.Wire.Grant { lo_chunk = 4; hi_chunk = 9; epoch = 3 };
    Dist.Wire.Result
      {
        chunk = 7;
        epoch = 3;
        state = Obs.Json.Obj [ ("scanned", Obs.Json.Int 16) ];
      };
    (* telemetry off: no metric delta *)
    Dist.Wire.Heartbeat { worker = "w0"; sent_s = 3.0; metrics = None };
    Dist.Wire.Heartbeat
      {
        worker = "w1";
        sent_s = 99.25;
        metrics =
          Some (Obs.Json.Obj [ ("dist.chunks_done", Obs.Json.Int 3) ]);
      };
    Dist.Wire.Events
      {
        worker = "w1";
        origin_s = 41.0;
        lines = [ {|{"ts_s":1.5,"ev":"worker.chunk"}|}; {|{"ts_s":2.0}|} ];
      };
    Dist.Wire.Shutdown;
  ]

let v3_frame payload =
  Printf.sprintf "#3 %d %08x %s\n" (String.length payload)
    (Dist.Wire.crc32 payload) payload

let payload_of m = Obs.Json.to_string (Dist.Wire.to_json m)

let with_pipe f =
  let rfd, wfd = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close rfd with Unix.Unix_error _ -> ());
      try Unix.close wfd with Unix.Unix_error _ -> ())
    (fun () -> f rfd wfd)

let write_str fd s =
  let pos = ref 0 in
  while !pos < String.length s do
    pos := !pos + Unix.write_substring fd s !pos (String.length s - !pos)
  done

let pump rd =
  let got = ref [] in
  let rec go () =
    match Dist.Wire.recv rd with
    | Some m ->
      got := m :: !got;
      go ()
    | None -> ()
  in
  go ();
  List.rev !got

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_wire_roundtrip () =
  List.iter
    (fun m ->
      match Dist.Wire.of_json (Dist.Wire.to_json m) with
      | Ok m' -> Alcotest.(check bool) "round-trips" true (m = m')
      | Error e -> Alcotest.fail e)
    sample_msgs;
  (* every field the encoder writes is required, except a heartbeat's
     optional metric delta *)
  List.iter
    (fun m ->
      match Dist.Wire.to_json m with
      | Obs.Json.Obj fields ->
        List.iter
          (fun (k, _) ->
            if k <> "metrics" then
              let without = Obs.Json.Obj (List.remove_assoc k fields) in
              match Dist.Wire.of_json without with
              | Error e ->
                Alcotest.(check bool) ("the error names " ^ k) true
                  (contains e k)
              | Ok _ -> Alcotest.failf "%s without %S decoded" (payload_of m) k)
          fields
      | _ -> Alcotest.fail "message did not encode as an object")
    sample_msgs

let test_wire_welcome_telemetry_false () =
  (* every field is written, even a false one: the decoder requires it *)
  match
    Dist.Wire.to_json
      (Dist.Wire.Welcome
         {
           config = Obs.Json.Obj [];
           config_hash = "h";
           epoch = 1;
           total_chunks = 2;
           telemetry = false;
         })
  with
  | Obs.Json.Obj fields ->
    Alcotest.(check bool) "telemetry written as false" true
      (List.assoc_opt "telemetry" fields = Some (Obs.Json.Bool false));
    Alcotest.(check bool) "a Welcome without it is refused" true
      (Result.is_error
         (Dist.Wire.of_json (Obs.Json.Obj (List.remove_assoc "telemetry" fields))))
  | _ -> Alcotest.fail "Welcome did not encode as an object"

let test_wire_unknown_kind () =
  let unknown = Obs.Json.Obj [ ("msg", Obs.Json.String "frobnicate") ] in
  (match Dist.Wire.of_json unknown with
   | Error e ->
     Alcotest.(check bool) "the error names the kind" true
       (contains e "frobnicate")
   | Ok _ -> Alcotest.fail "unknown kind decoded as a message");
  (* through the reader, a CRC-valid frame of that kind is a broken
     peer, like a frame missing a required field; a frame that arrived
     in the same read before it is still delivered, first *)
  let grant = Dist.Wire.Grant { lo_chunk = 0; hi_chunk = 2; epoch = 1 } in
  let bytes = v3_frame (payload_of grant) ^ v3_frame (Obs.Json.to_string unknown) in
  with_pipe (fun rfd wfd ->
      write_str wfd bytes;
      Unix.close wfd;
      let rd = Dist.Wire.reader rfd in
      Alcotest.(check bool) "recv: the Grant first" true
        (Dist.Wire.recv rd = Some grant);
      match Dist.Wire.recv rd with
      | exception Dist.Wire.Protocol_error e ->
        Alcotest.(check bool) "Protocol_error names the kind" true
          (contains e "frobnicate")
      | _ -> Alcotest.fail "a CRC-valid unknown kind must raise");
  with_pipe (fun rfd wfd ->
      write_str wfd bytes;
      match Dist.Wire.drain (Dist.Wire.reader rfd) with
      | [ m ], `Broken e ->
        Alcotest.(check bool) "drain: the Grant" true (m = grant);
        Alcotest.(check bool) "drain: the error names the kind" true
          (contains e "frobnicate")
      | msgs, _ ->
        Alcotest.failf "drain: %d messages, not the Grant and the error"
          (List.length msgs))

(* a peer may add fields to any known message — decoders must skip
   what they do not know. Inject junk fields at random positions into
   every sample message's JSON and require the identical decode. *)
let wire_unknown_fields_prop =
  prop "decoders skip unknown fields in known messages" ~count:100
    QCheck.(pair (int_range 1 4) (int_range 0 1000))
    (fun (extra, seed) ->
      let rng = Random.State.make [| seed |] in
      List.for_all
        (fun m ->
          match Dist.Wire.to_json m with
          | Obs.Json.Obj fields ->
            let junk =
              List.init extra (fun i ->
                  ( Printf.sprintf "x_future_%d_%d" i
                      (Random.State.int rng 1000),
                    match Random.State.int rng 3 with
                    | 0 -> Obs.Json.Int (Random.State.int rng 100)
                    | 1 -> Obs.Json.String "later"
                    | _ -> Obs.Json.Obj [ ("nested", Obs.Json.Bool true) ] ))
            in
            let fields =
              List.fold_left
                (fun acc j ->
                  let pos = Random.State.int rng (List.length acc + 1) in
                  List.filteri (fun i _ -> i < pos) acc
                  @ [ j ]
                  @ List.filteri (fun i _ -> i >= pos) acc)
                fields junk
            in
            Dist.Wire.of_json (Obs.Json.Obj fields) = Ok m
          | _ -> false)
        sample_msgs)

(* the stream arrives in arbitrary fragments: write the same message
   sequence through a pipe in pieces of every size and check the reader
   reassembles it exactly *)
let wire_fragmentation_prop =
  prop "reader reassembles arbitrarily fragmented streams" ~count:50
    QCheck.(int_range 1 40)
    (fun piece ->
      let rfd, wfd = Unix.pipe () in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close rfd with Unix.Unix_error _ -> ());
          try Unix.close wfd with Unix.Unix_error _ -> ())
        (fun () ->
          let bytes =
            String.concat ""
              (List.map (fun m -> v3_frame (payload_of m)) sample_msgs)
          in
          let pos = ref 0 in
          while !pos < String.length bytes do
            let len = Stdlib.min piece (String.length bytes - !pos) in
            let n =
              Unix.write_substring wfd bytes !pos len
            in
            pos := !pos + n
          done;
          Unix.close wfd;
          let rd = Dist.Wire.reader rfd in
          let got = ref [] in
          let rec pump () =
            match Dist.Wire.recv rd with
            | Some m ->
              got := m :: !got;
              pump ()
            | None -> ()
          in
          pump ();
          List.rev !got = sample_msgs))

(* -- Lease table ------------------------------------------------------------- *)

let now = 100.0

let test_lease_grant_lowest_first () =
  let t = Dist.Lease.create ~max_batch:4 ~total:20 ~completed:(fun i -> i < 3) () in
  Dist.Lease.register t ~worker:"a" ~now;
  (match Dist.Lease.grant t ~worker:"a" ~now with
   | Some (lo, hi) ->
     Alcotest.(check int) "starts after the restored prefix" 3 lo;
     Alcotest.(check bool) "batch is bounded" true (hi - lo <= 4 && hi > lo)
   | None -> Alcotest.fail "no grant");
  Alcotest.(check int) "restored chunks count as done" 3
    (Dist.Lease.done_count t)

let test_lease_batches_descend () =
  let t = Dist.Lease.create ~max_batch:100 ~total:64 ~completed:(fun _ -> false) () in
  Dist.Lease.register t ~worker:"a" ~now;
  let sizes = ref [] in
  let rec go () =
    match Dist.Lease.grant t ~worker:"a" ~now with
    | Some (lo, hi) ->
      sizes := (hi - lo) :: !sizes;
      for i = lo to hi - 1 do
        ignore (Dist.Lease.complete t ~chunk:i ~now)
      done;
      go ()
    | None -> ()
  in
  go ();
  let sizes = List.rev !sizes in
  Alcotest.(check bool) "monotonically non-increasing" true
    (let rec mono = function
       | a :: (b :: _ as rest) -> a >= b && mono rest
       | _ -> true
     in
     mono sizes);
  Alcotest.(check int) "covers all chunks" 64 (List.fold_left ( + ) 0 sizes);
  Alcotest.(check int) "tail batches are single chunks" 1
    (List.nth sizes (List.length sizes - 1));
  Alcotest.(check bool) "scan completed" true (Dist.Lease.is_complete t)

let test_lease_fail_worker_reclaims () =
  let t = Dist.Lease.create ~max_batch:4 ~total:16 ~completed:(fun _ -> false) () in
  Dist.Lease.register t ~worker:"a" ~now;
  Dist.Lease.register t ~worker:"b" ~now;
  let a_lo, a_hi =
    match Dist.Lease.grant t ~worker:"a" ~now with
    | Some r -> r
    | None -> Alcotest.fail "no grant for a"
  in
  ignore (Dist.Lease.complete t ~chunk:a_lo ~now);
  let reclaimed = Dist.Lease.fail_worker t ~worker:"a" in
  Alcotest.(check (list int)) "uncompleted leases come back"
    (List.init (a_hi - a_lo - 1) (fun i -> a_lo + 1 + i))
    reclaimed;
  (* the reclaimed chunks are the lowest free ones, so b gets them next *)
  (match Dist.Lease.grant t ~worker:"b" ~now with
   | Some (lo, _) ->
     Alcotest.(check int) "reassigned to the next hungry worker" (a_lo + 1) lo
   | None -> Alcotest.fail "no grant for b");
  Alcotest.(check (list string)) "dead worker is gone" [ "b" ]
    (Dist.Lease.workers t)

let test_lease_expire_only_leaseholders () =
  let t = Dist.Lease.create ~max_batch:2 ~total:8 ~completed:(fun _ -> false) () in
  Dist.Lease.register t ~worker:"busy" ~now;
  Dist.Lease.register t ~worker:"idle" ~now;
  ignore (Dist.Lease.grant t ~worker:"busy" ~now);
  (* both stamps are equally stale, but only the leaseholder expires *)
  let expired = Dist.Lease.expire t ~now:(now +. 60.0) ~timeout:10.0 in
  Alcotest.(check (list string)) "only the lease-holding worker expires"
    [ "busy" ] (List.map fst expired);
  Alcotest.(check int) "reclaimed chunks return to the pool" 8
    (Dist.Lease.todo_count t);
  (* progress-expiry reclaims the lease but keeps the worker: one lost
     frame is not a lost worker — it stays registered, connection open,
     eligible for grants again *)
  Alcotest.(check (list string)) "expired worker stays registered"
    [ "busy"; "idle" ] (Dist.Lease.workers t);
  Alcotest.(check bool) "and can be granted to again" true
    (Dist.Lease.grant t ~worker:"busy" ~now:(now +. 61.0) <> None)

let test_lease_expiry_is_progress_based () =
  (* heartbeats prove liveness, not progress: a worker wedged by a
     dropped Grant heartbeats forever and must still expire — while a
     worker that keeps completing chunks must not, however old its
     registration *)
  let t = Dist.Lease.create ~max_batch:2 ~total:8 ~completed:(fun _ -> false) () in
  Dist.Lease.register t ~worker:"wedged" ~now;
  ignore (Dist.Lease.grant t ~worker:"wedged" ~now);
  Dist.Lease.heartbeat t ~worker:"wedged" ~now:(now +. 59.0);
  Alcotest.(check (list string)) "heartbeats alone do not protect a lease"
    [ "wedged" ]
    (List.map fst (Dist.Lease.expire t ~now:(now +. 60.0) ~timeout:10.0));
  let t = Dist.Lease.create ~max_batch:2 ~total:8 ~completed:(fun _ -> false) () in
  Dist.Lease.register t ~worker:"slow" ~now;
  (match Dist.Lease.grant t ~worker:"slow" ~now with
   | Some (lo, _) ->
     ignore (Dist.Lease.complete t ~chunk:lo ~now:(now +. 55.0))
   | None -> Alcotest.fail "no grant");
  Alcotest.(check int) "completing a chunk is progress" 0
    (List.length (Dist.Lease.expire t ~now:(now +. 60.0) ~timeout:10.0))

let test_lease_beat_age () =
  let t = Dist.Lease.create ~total:4 ~completed:(fun _ -> false) () in
  Dist.Lease.register t ~worker:"a" ~now;
  Dist.Lease.heartbeat t ~worker:"a" ~now:(now +. 5.0);
  (match Dist.Lease.beat_age t ~worker:"a" ~now:(now +. 7.0) with
   | Some age -> Alcotest.(check (float 1e-9)) "age since last beat" 2.0 age
   | None -> Alcotest.fail "registered worker has a beat age");
  Alcotest.(check bool) "unregistered worker has none" true
    (Dist.Lease.beat_age t ~worker:"ghost" ~now = None)

let test_lease_duplicate_complete () =
  let t = Dist.Lease.create ~total:4 ~completed:(fun _ -> false) () in
  Dist.Lease.register t ~worker:"a" ~now;
  ignore (Dist.Lease.grant t ~worker:"a" ~now);
  Alcotest.(check bool) "first completion is fresh" true
    (Dist.Lease.complete t ~chunk:0 ~now = `Fresh);
  Alcotest.(check bool) "second completion is a duplicate" true
    (Dist.Lease.complete t ~chunk:0 ~now = `Duplicate)

let test_lease_same_tick_grant_complete () =
  (* a grant and its completions landing on the same timestamp count as
     progress: expiry compares strictly-greater, and nothing is left to
     reclaim afterwards *)
  let t = Dist.Lease.create ~max_batch:8 ~total:4 ~completed:(fun _ -> false) () in
  Dist.Lease.register t ~worker:"a" ~now;
  (match Dist.Lease.grant t ~worker:"a" ~now with
   | Some (lo, hi) ->
     for c = lo to hi - 1 do
       Alcotest.(check bool) "fresh" true
         (Dist.Lease.complete t ~chunk:c ~now = `Fresh)
     done
   | None -> Alcotest.fail "no grant");
  Alcotest.(check int) "same-tick completions expire nothing" 0
    (List.length (Dist.Lease.expire t ~now ~timeout:0.0));
  Alcotest.(check (list int)) "nothing left to reclaim" []
    (Dist.Lease.fail_worker t ~worker:"a")

let test_lease_expiry_races_duplicate_result () =
  (* the lease expired, the chunk was re-granted and completed by a
     peer — then the original holder's Result finally limps in: it must
     read as a duplicate, never a double count *)
  let t = Dist.Lease.create ~max_batch:1 ~total:2 ~completed:(fun _ -> false) () in
  Dist.Lease.register t ~worker:"slow" ~now;
  Dist.Lease.register t ~worker:"fast" ~now:(now +. 30.0);
  let lo =
    match Dist.Lease.grant t ~worker:"slow" ~now with
    | Some (lo, _) -> lo
    | None -> Alcotest.fail "no grant"
  in
  let expired = Dist.Lease.expire t ~now:(now +. 31.0) ~timeout:10.0 in
  Alcotest.(check (list string)) "only the stalled holder expires" [ "slow" ]
    (List.map fst expired);
  (match Dist.Lease.grant t ~worker:"fast" ~now:(now +. 31.0) with
   | Some (lo', _) -> Alcotest.(check int) "reclaimed chunk re-granted" lo lo'
   | None -> Alcotest.fail "no re-grant");
  Alcotest.(check bool) "the peer's completion is fresh" true
    (Dist.Lease.complete t ~chunk:lo ~now:(now +. 32.0) = `Fresh);
  Alcotest.(check bool) "the late original is a duplicate" true
    (Dist.Lease.complete t ~chunk:lo ~now:(now +. 33.0) = `Duplicate);
  Alcotest.(check int) "recorded exactly once" 1 (Dist.Lease.done_count t)

let test_lease_grant_sizing_small_todo () =
  (* four hungry workers, two chunks: grants are single chunks — never
     empty ranges — and the stragglers get [None] *)
  let t = Dist.Lease.create ~max_batch:16 ~total:2 ~completed:(fun _ -> false) () in
  List.iter
    (fun w -> Dist.Lease.register t ~worker:w ~now)
    [ "a"; "b"; "c"; "d" ];
  let g w = Dist.Lease.grant t ~worker:w ~now in
  (match g "a" with
   | Some range -> Alcotest.(check (pair int int)) "one chunk" (0, 1) range
   | None -> Alcotest.fail "a starves");
  (match g "b" with
   | Some range -> Alcotest.(check (pair int int)) "the other chunk" (1, 2) range
   | None -> Alcotest.fail "b starves");
  Alcotest.(check bool) "no empty grants for the rest" true
    (g "c" = None && g "d" = None)

(* -- Wire: v3 framing, CRC, corrupt-frame tolerance -------------------------- *)

let test_crc32_vectors () =
  Alcotest.(check int) "crc32 of empty is 0" 0 (Dist.Wire.crc32 "");
  Alcotest.(check int) "IEEE 802.3 check value" 0xCBF43926
    (Dist.Wire.crc32 "123456789")

let test_wire_v3_roundtrip () =
  with_pipe (fun rfd wfd ->
      List.iter (Dist.Wire.send wfd) sample_msgs;
      Unix.close wfd;
      let rd = Dist.Wire.reader rfd in
      Alcotest.(check bool) "v3 frames decode to the same messages" true
        (pump rd = sample_msgs);
      Alcotest.(check int) "no frame counted corrupt" 0
        (Dist.Wire.corrupt_count rd))

let test_wire_send_writes_v3_frames () =
  with_pipe (fun rfd wfd ->
      Dist.Wire.send wfd Dist.Wire.Shutdown;
      Unix.close wfd;
      let buf = Bytes.create 4096 in
      let n = Unix.read rfd buf 0 4096 in
      Alcotest.(check string) "the canonical length+CRC frame"
        (v3_frame (payload_of Dist.Wire.Shutdown))
        (Bytes.sub_string buf 0 n))

let test_wire_corrupt_frames_skipped () =
  with_pipe (fun rfd wfd ->
      let grant = Dist.Wire.Grant { lo_chunk = 0; hi_chunk = 2; epoch = 1 } in
      (* a bit-flipped payload byte under an unchanged CRC... *)
      let flipped =
        let f = Bytes.of_string (v3_frame (payload_of Dist.Wire.Shutdown)) in
        let i = Bytes.length f - 3 in
        Bytes.set f i (Char.chr (Char.code (Bytes.get f i) lxor 0x10));
        Bytes.to_string f
      in
      (* ...and a frame cut short of its declared length *)
      let truncated =
        let f = v3_frame (payload_of Dist.Wire.Shutdown) in
        String.sub f 0 (String.length f - 6) ^ "\n"
      in
      write_str wfd
        (v3_frame (payload_of grant)
        ^ flipped ^ truncated
        ^ v3_frame (payload_of Dist.Wire.Shutdown));
      Unix.close wfd;
      let rd = Dist.Wire.reader rfd in
      Alcotest.(check bool) "good frames survive around the damage" true
        (pump rd = [ grant; Dist.Wire.Shutdown ]);
      Alcotest.(check int) "both damaged frames counted" 2
        (Dist.Wire.corrupt_count rd))

let test_wire_valid_crc_bad_json_raises () =
  (* a frame whose checksum passes but whose payload is not a message
     is a broken sender, not line noise — the strict contract holds *)
  with_pipe (fun rfd wfd ->
      write_str wfd (v3_frame "this is not json");
      Unix.close wfd;
      let rd = Dist.Wire.reader rfd in
      match Dist.Wire.recv rd with
      | exception Dist.Wire.Protocol_error _ -> ()
      | _ -> Alcotest.fail "CRC-valid garbage payload must raise")

let test_wire_bare_lines_counted () =
  (* bare JSON lines are not frames: each is counted and skipped, even
     between frames, and only the frame decodes *)
  with_pipe (fun rfd wfd ->
      let bare m = payload_of m ^ "\n" in
      let hello = List.hd sample_msgs in
      let grant = Dist.Wire.Grant { lo_chunk = 4; hi_chunk = 9; epoch = 3 } in
      write_str wfd
        (bare hello ^ v3_frame (payload_of grant) ^ bare Dist.Wire.Shutdown);
      Unix.close wfd;
      let rd = Dist.Wire.reader rfd in
      Alcotest.(check bool) "only the frame decodes" true (pump rd = [ grant ]);
      Alcotest.(check int) "both bare lines counted corrupt" 2
        (Dist.Wire.corrupt_count rd))

let test_wire_garbage_counted () =
  (* an unparseable line is counted and skipped on any connection: on a
     fresh one... *)
  with_pipe (fun rfd wfd ->
      write_str wfd "garbage\n";
      Unix.close wfd;
      let rd = Dist.Wire.reader rfd in
      Alcotest.(check bool) "nothing decodes" true (pump rd = []);
      Alcotest.(check int) "the line is counted, not fatal" 1
        (Dist.Wire.corrupt_count rd));
  (* ...and after a valid frame *)
  with_pipe (fun rfd wfd ->
      write_str wfd (v3_frame (payload_of Dist.Wire.Shutdown) ^ "garbage\n");
      Unix.close wfd;
      let rd = Dist.Wire.reader rfd in
      Alcotest.(check bool) "the valid frame decodes" true
        (pump rd = [ Dist.Wire.Shutdown ]);
      Alcotest.(check int) "the mangled line is counted, not fatal" 1
        (Dist.Wire.corrupt_count rd))

(* -- Decoders of outside bytes never crash ------------------------------------ *)

(* Everything a reader makes of [bytes] sent through a socketpair: the
   decoded messages and the corrupt-line count. *)
let read_through_socket bytes =
  let rfd, wfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close rfd;
      Unix.close wfd)
    (fun () ->
      write_str wfd bytes;
      Unix.shutdown wfd Unix.SHUTDOWN_SEND;
      let rd = Dist.Wire.reader rfd in
      let msgs = pump rd in
      Ok (msgs, Dist.Wire.corrupt_count rd))

(* frame pieces; the only CRC-valid lines they can form are the
   complete frames of known messages among them *)
let frame_vocab =
  let shutdown = v3_frame (payload_of Dist.Wire.Shutdown) in
  let grant =
    v3_frame (payload_of (Dist.Wire.Grant { lo_chunk = 0; hi_chunk = 2; epoch = 1 }))
  in
  [ shutdown; grant; String.sub grant 0 (String.length grant - 1);
    String.sub shutdown 0 9; "#3 "; "#3"; "#"; " "; "\n"; "\n"; "-1";
    "4611686018427387903"; "ffffffff"; "{"; "}"; {|"msg"|}; ":";
    {|"shutdown"|} ]

(* message members, with negative and max_int values *)
let message_vocab =
  [ {|"msg":"hello"|}; {|"msg":"welcome"|}; {|"msg":"grant"|};
    {|"msg":"result"|}; {|"msg":"heartbeat"|}; {|"msg":"events"|};
    {|"msg":"shutdown"|}; {|"msg":"frobnicate"|}; {|"worker":"w"|};
    {|"pid":-1|}; {|"host":"h"|}; {|"sent_s":-1|};
    {|"sent_s":4611686018427387903|}; {|"config":{}|};
    {|"config_hash":"h"|}; {|"epoch":-1|};
    {|"total_chunks":4611686018427387903|}; {|"telemetry":true|};
    {|"lo_chunk":-1|}; {|"hi_chunk":4611686018427387903|}; {|"chunk":-1|};
    {|"state":null|}; {|"metrics":{"x":-1}|}; {|"origin_s":-1|};
    {|"lines":["a",-1]|}; {|"lines":[]|} ]

let wire_fuzz_props =
  Fuzz_gen.properties ~decoder:"Wire reader" ~vocab:frame_vocab
    read_through_socket
  (* a frame the CRC vouches for may only fail as a Protocol_error; the
     label stays short so that the runner's cut keeps each name's mode *)
  @ Fuzz_gen.properties ~record:true ~decoder:"Wire payload reader"
      ~vocab:message_vocab
      (fun payload ->
        match read_through_socket (v3_frame payload) with
        | r -> r
        | exception Dist.Wire.Protocol_error e -> Error e)

let of_parsed decode s = Result.bind (Obs.Json.parse s) decode

let checkpoint_fuzz_props =
  Fuzz_gen.properties ~record:true ~decoder:"Checkpoint.of_json"
    ~vocab:
      [ {|"schema":"ppcheckpoint/v2"|}; {|"schema":"ppcheckpoint/v1"|};
        {|"config_hash":"h"|}; {|"config":{"n":-1}|};
        {|"total_chunks":4611686018427387903|}; {|"total_chunks":-1|};
        {|"total_chunks":2|}; {|"epoch":-1|}; {|"epoch":4611686018427387903|};
        {|"chunks":[]|}; {|"chunks":[{"index":-1,"state":0}]|};
        {|"chunks":[{"index":4611686018427387903,"state":{}}]|};
        {|"chunks":[{"index":1,"state":null}]|}; {|"leases":[]|};
        {|"leases":[{"chunk":-1,"holder":"w","epoch":0}]|};
        {|"leases":[{"chunk":1,"holder":"w","epoch":-1}]|};
        {|"leases":[{"chunk":4611686018427387903}]|} ]
    (of_parsed Obs.Checkpoint.of_json)

(* Resuming reads a whole file of outside bytes. The vocabulary carries
   the run's own configuration and hash, so token sequences get past the
   header into the chunk states, and a count far beyond what can be
   allocated. [Checkpoint.open_or_resume] may refuse them with [Mismatch]
   or [Invalid_argument], and raise nothing else. *)
let resume_fuzz_props =
  let config = Obs.Json.Obj [ ("n", Obs.Json.Int (-1)) ] in
  Fuzz_gen.properties ~record:true ~decoder:"open_or_resume"
    ~vocab:
      [ {|"schema":"ppcheckpoint/v2"|}; {|"schema":"ppcheckpoint/v1"|};
        Printf.sprintf {|"config_hash":"%s"|} (Obs.Checkpoint.hash_config config);
        {|"config_hash":"h"|}; {|"config":{"n":-1}|}; {|"config":{"n":2}|};
        {|"total_chunks":2|}; {|"total_chunks":1125899906842624|};
        {|"total_chunks":4611686018427387903|}; {|"total_chunks":-1|};
        {|"epoch":0|}; {|"epoch":-1|}; {|"chunks":[]|};
        {|"chunks":[{"index":1,"state":{}}]|};
        {|"chunks":[{"index":2,"state":null}]|};
        {|"leases":[{"chunk":1,"holder":"w","epoch":0}]|} ]
    (fun bytes ->
      let path = Filename.temp_file "fuzzledger" ".ckpt" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc bytes);
          match
            Obs.Checkpoint.open_or_resume ~path ~resume:true ~config
              ~total_chunks:2
          with
          | c, _ -> Ok c
          | exception Obs.Checkpoint.Mismatch _ -> Error "mismatch"
          | exception Invalid_argument e -> Error e))

(* a plan computes its chunk ranges, so even the exhaustive n = 4
   space (160,000,000,000 codes) is a cheap plan *)
let plan_fuzz_props =
  Fuzz_gen.properties ~record:true ~decoder:"plan_of_config"
    ~vocab:
      [ {|"workload":"bbsearch"|}; {|"n":1|}; {|"n":2|}; {|"n":3|};
        {|"n":4|}; {|"n":-1|};
        {|"n":4611686018427387903|}; {|"max_input":-1|};
        {|"max_input":4611686018427387903|}; {|"max_configs":-1|};
        {|"eta_budget_s":-1|}; {|"prune":true|}; {|"chunk":-1|};
        {|"chunk":4611686018427387903|}; {|"sample":[-1,5]|};
        {|"sample":[4611686018427387903,5]|}; {|"sample":[2,-1]|};
        {|"sample":[1125899906842624,1]|}; {|"total":1125899906842624|};
        {|"sample":null|}; {|"schedule":"guided"|}; {|"jobs":-1|};
        {|"jobs":4611686018427387903|}; {|"total":2|}; {|"total":-1|};
        {|"total":4611686018427387903|}; {|"total":373248|};
        {|"total":160000000000|}; {|"analysis":"all_1"|};
        {|"analysis":"census"|} ]
    (of_parsed Busy_beaver.plan_of_config)

let test_select_eintr_rides_signals () =
  (* an interval timer delivers SIGALRM every 50ms; a 0.3s select must
     neither raise EINTR nor return early — the monotonic remaining-time
     recompute keeps the deadline honest across interruptions *)
  let hits = ref 0 in
  let old_handler =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> incr hits))
  in
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = 0.05; it_value = 0.05 });
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_interval = 0.0; it_value = 0.0 });
      Sys.set_signal Sys.sigalrm old_handler)
    (fun () ->
      with_pipe (fun rfd _wfd ->
          let t0 = Obs.Clock.now_ns () in
          let ready = Dist.Wire.select_eintr [ rfd ] 0.3 in
          let dt = Obs.Clock.ns_to_s (Int64.sub (Obs.Clock.now_ns ()) t0) in
          Alcotest.(check int) "nothing readable" 0 (List.length ready);
          Alcotest.(check bool) "signals actually interrupted the wait" true
            (!hits >= 2);
          Alcotest.(check bool) "the deadline held through EINTR" true
            (dt >= 0.25 && dt < 2.0)))

(* -- Chaos: deterministic fault injection ------------------------------------ *)

let chaos_profile name =
  List.find (fun p -> p.Dist.Chaos.name = name) Dist.Chaos.profiles

let test_chaos_parse_spec () =
  (match Dist.Chaos.parse_spec "lossy" with
   | Ok { Dist.Chaos.profile; seed } ->
     Alcotest.(check string) "profile" "lossy" profile.Dist.Chaos.name;
     Alcotest.(check int) "seed defaults to 1" 1 seed
   | Error e -> Alcotest.fail e);
  (match Dist.Chaos.parse_spec "wild:42" with
   | Ok s ->
     Alcotest.(check string) "round-trips" "wild:42"
       (Dist.Chaos.spec_to_string s)
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "unknown profile rejected" true
    (Result.is_error (Dist.Chaos.parse_spec "bogus"));
  Alcotest.(check bool) "bad seed rejected" true
    (Result.is_error (Dist.Chaos.parse_spec "lossy:banana"))

let chaos_frames =
  List.init 64 (fun i ->
      let payload = Printf.sprintf {|{"msg":"probe","i":%d}|} i in
      v3_frame payload)

let chaos_determinism_prop =
  prop "same spec and conn replay the same fault schedule" ~count:100
    QCheck.(pair (int_range 0 10_000) (int_range 0 40))
    (fun (seed, conn) ->
      let spec = { Dist.Chaos.profile = chaos_profile "wild"; seed } in
      let a = Dist.Chaos.create spec ~conn in
      let b = Dist.Chaos.create spec ~conn in
      List.for_all
        (fun f -> Dist.Chaos.apply a f = Dist.Chaos.apply b f)
        chaos_frames
      && Dist.Chaos.injected a = Dist.Chaos.injected b)

let test_chaos_budget_bounds_faults () =
  let spec = { Dist.Chaos.profile = chaos_profile "lossy"; seed = 7 } in
  let t = Dist.Chaos.create spec ~conn:0 in
  List.iter (fun f -> ignore (Dist.Chaos.apply t f)) chaos_frames;
  List.iter (fun f -> ignore (Dist.Chaos.apply t f)) chaos_frames;
  Alcotest.(check int) "budget fully spent, never exceeded"
    (chaos_profile "lossy").Dist.Chaos.budget (Dist.Chaos.injected t);
  (* an exhausted stream is a passthrough — the liveness argument: any
     chaos run faces only finitely many faults *)
  let f = List.hd chaos_frames in
  ignore (Dist.Chaos.apply t f);
  Alcotest.(check bool) "passthrough after exhaustion" true
    (Dist.Chaos.apply t f = [ f ])

(* -- Checkpoint: one ledger format ------------------------------------------- *)

let test_checkpoint_v1_refused () =
  let v1 =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.String "ppcheckpoint/v1");
        ("config_hash", Obs.Json.String "deadbeef");
        ("config", Obs.Json.Obj [ ("n", Obs.Json.Int 2) ]);
        ("total_chunks", Obs.Json.Int 5);
        ( "chunks",
          Obs.Json.List
            [
              Obs.Json.Obj
                [
                  ("index", Obs.Json.Int 2);
                  ("state", Obs.Json.Obj [ ("scanned", Obs.Json.Int 7) ]);
                ];
            ] );
      ]
  in
  (match Obs.Checkpoint.of_json v1 with
   | Error e ->
     Alcotest.(check bool) "the error names the schema" true
       (contains e "ppcheckpoint/v1")
   | Ok _ -> Alcotest.fail "a v1 checkpoint loaded");
  let path = Filename.temp_file "v1ledger" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Obs.Json.to_string v1));
      match
        Obs.Checkpoint.open_or_resume ~path ~resume:true
          ~config:(Obs.Json.Obj [ ("n", Obs.Json.Int 2) ])
          ~total_chunks:5
      with
      | exception Invalid_argument e ->
        Alcotest.(check bool) "open_or_resume names the schema" true
          (contains e "ppcheckpoint/v1")
      | _ -> Alcotest.fail "open_or_resume resumed a v1 checkpoint");
  (* the same content as v2 round-trips with its epoch, which is
     required *)
  let c =
    Obs.Checkpoint.create
      ~config:(Obs.Json.Obj [ ("n", Obs.Json.Int 2) ])
      ~total_chunks:5
  in
  Obs.Checkpoint.mark_done c 2 (Obs.Json.Obj [ ("scanned", Obs.Json.Int 7) ]);
  ignore (Obs.Checkpoint.bump_epoch c);
  (match Obs.Checkpoint.of_json (Obs.Checkpoint.to_json c) with
   | Error e -> Alcotest.fail e
   | Ok c' ->
     Alcotest.(check int) "epoch round-trips" 1 (Obs.Checkpoint.epoch c');
     Alcotest.(check int) "completed chunks survive" 1 (Obs.Checkpoint.num_done c'));
  match Obs.Checkpoint.to_json c with
  | Obs.Json.Obj fields ->
    (match Obs.Checkpoint.of_json (Obs.Json.Obj (List.remove_assoc "epoch" fields)) with
     | Error e ->
       Alcotest.(check bool) "the error names epoch" true (contains e "epoch")
     | Ok _ -> Alcotest.fail "a checkpoint without \"epoch\" loaded");
    (* older builds also wrote a lease table: such a ledger still loads,
       the table skipped *)
    let leases =
      Obs.Json.List
        [
          Obs.Json.Obj
            [
              ("chunk", Obs.Json.Int 3);
              ("holder", Obs.Json.String "w1");
              ("epoch", Obs.Json.Int 1);
            ];
        ]
    in
    (match Obs.Checkpoint.of_json (Obs.Json.Obj (fields @ [ ("leases", leases) ])) with
     | Error e -> Alcotest.fail e
     | Ok c' ->
       Alcotest.(check int) "a ledger with leases keeps its chunks" 1
         (Obs.Checkpoint.num_done c'))
  | _ -> Alcotest.fail "checkpoint did not encode as an object"

(* counts read from outside bytes size allocations: out of range they
   must come back as an [Error] naming them, never as an exception *)
let test_outside_counts_are_errors () =
  let ckpt total =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.String Obs.Checkpoint.schema);
        ("config_hash", Obs.Json.String "h");
        ("config", Obs.Json.Obj []);
        ("total_chunks", Obs.Json.Int total);
        ("epoch", Obs.Json.Int 0);
        ("chunks", Obs.Json.List []);
        ("leases", Obs.Json.List []);
      ]
  in
  (match Obs.Checkpoint.of_json (ckpt max_int) with
   | Error e ->
     Alcotest.(check bool) "names total_chunks" true (contains e "total_chunks")
   | Ok _ -> Alcotest.fail "a max_int chunk count loaded");
  (* a count within the array limit is still far too large to allocate:
     resuming compares it with the run's before anything is sized by it,
     and a count-only difference is named as such *)
  let plan = Busy_beaver.plan ~n:1 () in
  let config = Busy_beaver.plan_config plan in
  List.iter
    (fun total ->
      let path = Filename.temp_file "countledger" ".ckpt" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc
                (Obs.Json.to_string
                   (Obs.Json.Obj
                      [
                        ("schema", Obs.Json.String Obs.Checkpoint.schema);
                        ( "config_hash",
                          Obs.Json.String (Obs.Checkpoint.hash_config config) );
                        ("config", config);
                        ("total_chunks", Obs.Json.Int total);
                        ("epoch", Obs.Json.Int 0);
                        ("chunks", Obs.Json.List []);
                      ])));
          List.iter
            (fun (who, resume_from) ->
              match resume_from () with
              | () -> Alcotest.failf "%s resumed %d chunks of 1" who total
              | exception Obs.Checkpoint.Mismatch { path; diff } ->
                Alcotest.(check (list string))
                  (Printf.sprintf "%s, %d chunks: the diff names total_chunks"
                     who total)
                  [ "total_chunks" ]
                  (List.map (fun d -> d.Obs.Checkpoint.field) diff);
                let msg = Obs.Checkpoint.mismatch_message ~path diff in
                Alcotest.(check bool)
                  (Printf.sprintf "%s, %d chunks: both counts shown" who total)
                  true
                  (contains msg "run has 1"
                  && contains msg ("snapshot has " ^ string_of_int total)))
            [
              ( "open_or_resume",
                fun () ->
                  ignore
                    (Obs.Checkpoint.open_or_resume ~path ~resume:true ~config
                       ~total_chunks:(Busy_beaver.plan_chunks plan)) );
              ( "Busy_beaver.scan",
                fun () ->
                  ignore (Busy_beaver.scan ~n:1 ~checkpoint:path ~resume:true ())
              );
            ]))
    [ 1 lsl 50; 5 ];
  let config ?(chunk = 8) (count, total) =
    match Busy_beaver.plan_config (Busy_beaver.plan ~chunk ~n:1 ()) with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.map
           (fun (k, v) ->
             match k with
             | "sample" -> (k, Obs.Json.List [ Obs.Json.Int count; Obs.Json.Int 5 ])
             | "total" -> (k, Obs.Json.Int total)
             | _ -> (k, v))
           fields)
    | _ -> Alcotest.fail "plan_config is not an object"
  in
  List.iter
    (fun (count, total) ->
      match Busy_beaver.plan_of_config (config (count, total)) with
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "sample %d, total %d: names the count" count total)
          true
          (contains e (string_of_int count))
      | Ok _ -> Alcotest.failf "sample count %d decoded" count)
    [ (-1, -1); (-1, 2); (max_int, max_int); (max_int, 2) ];
  Alcotest.(check bool) "a max_int chunk still plans" true
    (Result.is_ok (Busy_beaver.plan_of_config (config ~chunk:max_int (2, 2))));
  (* a plan computes its sampled codes: a 2^50-code sample decodes at
     once, and its last chunk draws its codes on demand *)
  let huge = config (1 lsl 50, 1 lsl 50) in
  match Allocation.measure (fun () -> Busy_beaver.plan_of_config huge) with
  | Error e, _ -> Alcotest.failf "a 2^50-code sample refused: %s" e
  | Ok plan, allocated ->
    Alcotest.(check bool)
      (Printf.sprintf "a 2^50-code sample plans in under 1 MB (%.0f bytes)"
         allocated)
      true (allocated < 1e6);
    let chunks = Busy_beaver.plan_chunks plan in
    Alcotest.(check int) "2^47 chunks of 8" (1 lsl 47) chunks;
    Alcotest.(check bool) "the last chunk scans" true
      (Busy_beaver.scan_chunk plan (chunks - 1) <> Obs.Json.Null)

(* [plan_config] of [plan] with [member] set to [value] *)
let config_with plan member value =
  match Busy_beaver.plan_config plan with
  | Obs.Json.Obj fields ->
    Obs.Json.Obj (List.remove_assoc member fields @ [ (member, value) ])
  | _ -> Alcotest.fail "plan_config is not an object"

(* members the replanned configuration does not write as sent: ones
   this build does not know, and a chunk the plan clamps to 1 *)
let unplanned_members =
  [
    ("schedule", Obs.Json.String "guided");
    ("packed", Obs.Json.Bool false);
    ("certify", Obs.Json.Bool true);
    ("chunk", Obs.Json.Int 0);
  ]

let test_plan_refuses_unplanned_members () =
  let plan = Busy_beaver.plan ~chunk:8 ~max_input:8 ~n:2 () in
  List.iter
    (fun (member, value) ->
      match Busy_beaver.plan_of_config (config_with plan member value) with
      | Error e ->
        Alcotest.(check bool) (Printf.sprintf "the error names %s: %s" member e)
          true (contains e member)
      | Ok _ -> Alcotest.failf "a configuration with %S was planned" member)
    unplanned_members

(* an older build's configuration with a wall-clock budget would run
   unbudgeted here, so it is refused; its "no budget" [null] is the
   plan it always was *)
let test_plan_refuses_wall_budget () =
  let plan = Busy_beaver.plan ~chunk:8 ~max_input:8 ~n:2 () in
  (match
     Busy_beaver.plan_of_config
       (config_with plan "eta_budget_s" (Obs.Json.Float 5.0))
   with
  | Error e ->
    Alcotest.(check bool) ("the error names eta_budget_s: " ^ e) true
      (contains e "eta_budget_s")
  | Ok _ -> Alcotest.fail "a 5 s wall-clock budget was accepted");
  match
    Busy_beaver.plan_of_config (config_with plan "eta_budget_s" Obs.Json.Null)
  with
  | Error e -> Alcotest.failf "a null eta_budget_s was refused: %s" e
  | Ok p ->
    Alcotest.(check string) "the same plan"
      (Obs.Json.to_string (Busy_beaver.plan_config plan))
      (Obs.Json.to_string (Busy_beaver.plan_config p))

let test_mismatch_diff () =
  let expected =
    Obs.Json.Obj [ ("n", Obs.Json.Int 3); ("chunk", Obs.Json.Int 16) ]
  in
  let found =
    Obs.Json.Obj [ ("n", Obs.Json.Int 2); ("chunk", Obs.Json.Int 16) ]
  in
  let diff = Obs.Checkpoint.config_diff ~expected ~found in
  Alcotest.(check (list string)) "only the changed field" [ "n" ]
    (List.map (fun d -> d.Obs.Checkpoint.field) diff);
  let msg = Obs.Checkpoint.mismatch_message ~path:"x.ckpt" diff in
  Alcotest.(check bool) "message shows both values" true
    (contains msg "run has 3" && contains msg "snapshot has 2");
  (* Ledgers from before the "packed" and "eta_budget_s" members left
     the scan fingerprint (an older build wrote each after [after]):
     every plan hashes differently now, so both the local scan and the
     coordinator must refuse them with a diff naming that member, never
     resume them silently. *)
  let plan = Busy_beaver.plan ~chunk:8 ~max_input:8 ~n:2 () in
  let old_config ~after member value =
    match Busy_beaver.plan_config plan with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.concat_map
           (fun (k, v) ->
             if k = after then [ (k, v); (member, value) ] else [ (k, v) ])
           fields)
    | _ -> Alcotest.fail "plan_config is not an object"
  in
  List.iter
    (fun (after, member, value) ->
      let path = Filename.temp_file "oldledger" ".ckpt" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Obs.Checkpoint.save ~path
            (Obs.Checkpoint.create ~config:(old_config ~after member value)
               ~total_chunks:(Busy_beaver.plan_chunks plan));
          List.iter
            (fun (who, resume_from) ->
              match resume_from () with
              | () -> Alcotest.failf "%s resumed a ledger with %S" who member
              | exception Obs.Checkpoint.Mismatch { diff; _ } ->
                Alcotest.(check (list string))
                  (Printf.sprintf "%s: the diff names %s" who member)
                  [ member ]
                  (List.map (fun d -> d.Obs.Checkpoint.field) diff);
                Alcotest.(check (option string))
                  (Printf.sprintf "%s: the run has no %s" who member)
                  None (List.hd diff).Obs.Checkpoint.expected)
            [
              ( "Busy_beaver.scan",
                fun () ->
                  ignore
                    (Busy_beaver.scan ~chunk:8 ~max_input:8 ~n:2
                       ~checkpoint:path ~resume:true ()) );
              ( "Distributed_scan.coordinate",
                fun () ->
                  ignore
                    (Distributed_scan.coordinate ~workers:1 ~checkpoint:path
                       ~resume:true ~plan ()) );
            ]))
    [
      ("prune", "packed", Obs.Json.Bool true);
      ("max_configs", "eta_budget_s", Obs.Json.Null);
    ]

(* -- Simulated distributed scan: kill a random worker at a random chunk ----- *)

(* The per-chunk work and the merge are the real ones
   (Busy_beaver.scan_chunk / result_of_chunks); only the transport is
   simulated — scheduling decisions, the kill moment and the recovery
   all run through Dist.Lease exactly as the coordinator drives it. *)
let simulate_with_kill ~plan ~reference ~num_workers ~kill_worker ~kill_after
    ~choose =
  let nc = Busy_beaver.plan_chunks plan in
  let slots = Array.make nc None in
  let lease =
    Dist.Lease.create ~max_batch:3 ~total:nc ~completed:(fun _ -> false) ()
  in
  let queues = Array.make num_workers [] in
  let live = Array.make num_workers true in
  let done_by = Array.make num_workers 0 in
  let killed = ref false in
  for w = 0 to num_workers - 1 do
    Dist.Lease.register lease ~worker:(string_of_int w) ~now:0.0
  done;
  let steps = ref 0 in
  while (not (Dist.Lease.is_complete lease)) && !steps < 100_000 do
    incr steps;
    (* top up idle live workers, as the coordinator's feed_idle does *)
    for w = 0 to num_workers - 1 do
      if live.(w) && queues.(w) = [] then
        match Dist.Lease.grant lease ~worker:(string_of_int w) ~now:0.0 with
        | Some (lo, hi) -> queues.(w) <- List.init (hi - lo) (fun i -> lo + i)
        | None -> ()
    done;
    let ready =
      List.filter
        (fun w -> live.(w) && queues.(w) <> [])
        (List.init num_workers Fun.id)
    in
    match ready with
    | [] -> Alcotest.fail "deadlock: chunks outstanding but no ready worker"
    | _ ->
      let w = List.nth ready (choose (List.length ready)) in
      if (not !killed) && w = kill_worker && done_by.(w) >= kill_after then begin
        (* SIGKILL: everything still queued goes back to the pool *)
        ignore (Dist.Lease.fail_worker lease ~worker:(string_of_int w));
        live.(w) <- false;
        queues.(w) <- [];
        killed := true
      end
      else begin
        match queues.(w) with
        | [] -> assert false
        | c :: rest ->
          queues.(w) <- rest;
          if slots.(c) = None then
            slots.(c) <- Some (Busy_beaver.scan_chunk plan c);
          ignore (Dist.Lease.complete lease ~chunk:c ~now:0.0);
          done_by.(w) <- done_by.(w) + 1
      end
  done;
  Dist.Lease.is_complete lease
  && result_eq (Busy_beaver.result_of_chunks plan slots) reference

(* one plan and reference for all 200 iterations — the prop varies the
   worker count, the victim, the kill moment and the interleaving *)
let sim_plan = Busy_beaver.plan ~chunk:4 ~max_input:8 ~n:2 ()
let sim_reference = Busy_beaver.scan ~chunk:4 ~max_input:8 ~n:2 ()

let kill_recovery_prop =
  prop "killed worker's chunks reassign; merged result byte-identical"
    ~count:200
    QCheck.(
      quad (int_range 2 5) (int_range 0 4) (int_range 0 12) (int_range 0 1000))
    (fun (num_workers, kill_worker, kill_after, seed) ->
      let kill_worker = kill_worker mod num_workers in
      let rng = Random.State.make [| seed |] in
      let choose n = Random.State.int rng n in
      simulate_with_kill ~plan:sim_plan ~reference:sim_reference ~num_workers
        ~kill_worker ~kill_after ~choose)

(* -- Clock-offset alignment -------------------------------------------------- *)

(* Telemetry.align_line is the pure core of the coordinator's merged
   timeline: a worker's capture sink stamps absolute worker-clock
   seconds, and alignment adds the (min-filtered) offset estimate to
   land on the coordinator's clock. With exact offsets the merged
   timeline must be globally monotone and — canonicalized by sorting —
   invariant under how the events were partitioned across workers. *)
let align_canonical ~num_workers ~offsets ~assign events =
  (* worker w's local view of global instant t is t + offsets.(w);
     align with offset_s = -offsets.(w) (the exact estimate when the
     minimum delivery delay is 0) *)
  let aligned =
    List.concat
      (List.init num_workers (fun w ->
           let mine =
             List.filter (fun (i, _) -> assign i = w) events
           in
           List.filter_map
             (fun (i, t) ->
               let line =
                 Obs.Json.to_string
                   (Obs.Json.Obj
                      [
                        ("ts_s", Obs.Json.Float (t +. offsets.(w)));
                        ("ev", Obs.Json.String (Printf.sprintf "e%d" i));
                      ])
               in
               Option.map
                 (fun j -> (i, j))
                 (Dist.Telemetry.align_line ~offset_s:(-.offsets.(w))
                    ~origin_s:0.0 ~sink_origin_s:0.0
                    ~tags:[ ("worker", Obs.Json.String (string_of_int w)) ]
                    line))
             mine))
  in
  let ts_of j =
    match j with
    | Obs.Json.Obj f -> (
        match List.assoc_opt "ts_s" f with
        | Some (Obs.Json.Float t) -> t
        | Some (Obs.Json.Int t) -> float_of_int t
        | _ -> nan)
    | _ -> nan
  in
  List.sort compare (List.map (fun (i, j) -> (ts_of j, i)) aligned)

(* forwarded lines are outside bytes too: any record realigns or is
   dropped, and what comes out prints *)
let align_fuzz_props =
  Fuzz_gen.properties ~record:true ~decoder:"Telemetry.align_line"
    ~vocab:
      [ {|"ts_s":0|}; {|"ts_s":-1e308|}; {|"ts_s":1e999|};
        {|"ts_s":4611686018427387903|}; {|"ts_s":"x"|}; {|"ts_s":null|};
        {|"schema":"ppevents/v1"|}; {|"ev":"worker.chunk"|};
        {|"worker":7|}; {|"host":"h"|}; {|"data":{"chunk":-1}|} ]
    (fun line ->
      Ok
        (Option.map Obs.Json.to_string
           (Dist.Telemetry.align_line ~offset_s:1e308 ~origin_s:(-2.0)
              ~sink_origin_s:0.5
              ~tags:[ ("worker", Obs.Json.String "w"); ("wpid", Obs.Json.Int 3) ]
              line)))

let offset_alignment_prop =
  prop "skewed worker streams align to one monotone, stable timeline"
    ~count:100
    QCheck.(
      quad (int_range 1 5) (int_range 0 1000) (int_range 1 30) (int_range 0 1000))
    (fun (num_workers, off_seed, num_events, assign_seed) ->
      let rng = Random.State.make [| off_seed |] in
      let offsets =
        Array.init num_workers (fun _ ->
            Random.State.float rng 10.0 -. 5.0)
      in
      let events =
        List.init num_events (fun i -> (i, float_of_int i *. 0.125))
      in
      let arng = Random.State.make [| assign_seed |] in
      let assignment =
        Array.init num_events (fun _ -> Random.State.int arng num_workers)
      in
      let split =
        align_canonical ~num_workers ~offsets
          ~assign:(fun i -> assignment.(i))
          events
      in
      (* canonical reference: everything on one unskewed worker *)
      let whole =
        align_canonical ~num_workers:1 ~offsets:[| 0.0 |]
          ~assign:(fun _ -> 0)
          events
      in
      let rec monotone = function
        | (a, _) :: ((b, _) :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone split
      && List.map snd split = List.map snd whole
      && List.for_all2
           (fun (ta, _) (tb, _) -> Float.abs (ta -. tb) < 1e-9)
           split whole)

let test_align_skips_headers_and_tags () =
  let t = Dist.Telemetry.create () in
  let aligned =
    Dist.Telemetry.align_events t ~worker:"w9" ~origin_s:0.0 ~sink_origin_s:0.0
      [
        {|{"schema":"ppevents/v1","t0_utc":"x"}|};
        {|{"ts_s":1.0,"ev":"worker.chunk"}|};
        "not json at all";
      ]
  in
  Alcotest.(check int) "header and junk dropped, record kept" 1
    (List.length aligned);
  match aligned with
  | [ Obs.Json.Obj fields ] ->
    Alcotest.(check bool) "worker tag appended" true
      (List.assoc_opt "worker" fields = Some (Obs.Json.String "w9"))
  | _ -> Alcotest.fail "expected one object"

let test_offset_min_filter () =
  let t = Dist.Telemetry.create () in
  (* worker clock = coordinator clock + 3: sent stamps are +3, and
     delivery delays shrink over time — the estimate must keep the
     minimum, converging on -3 + min delay *)
  Dist.Telemetry.join t ~worker:"w" ~host:"h" ~pid:1 ~sent_s:(10.0 +. 3.0)
    ~now:(10.0 +. 0.5);
  Dist.Telemetry.heartbeat t ~worker:"w" ~sent_s:(20.0 +. 3.0) ~metrics:None
    ~now:(20.0 +. 0.01);
  Dist.Telemetry.heartbeat t ~worker:"w" ~sent_s:(30.0 +. 3.0) ~metrics:None
    ~now:(30.0 +. 0.2);
  let est = Dist.Telemetry.offset t ~worker:"w" in
  Alcotest.(check bool) "min-filtered to the best sample" true
    (Float.abs (est -. (-3.0 +. 0.01)) < 1e-9)

(* -- Real processes: fork workers through Distributed_scan ------------------- *)

let test_fork_smoke () =
  let plan = Busy_beaver.plan ~chunk:8 ~max_input:8 ~n:2 () in
  let reference = Busy_beaver.scan ~chunk:8 ~max_input:8 ~n:2 () in
  let o = Distributed_scan.coordinate ~workers:2 ~plan () in
  Alcotest.(check bool) "result identical to single-process" true
    (result_eq o.Distributed_scan.result reference);
  Alcotest.(check bool) "not interrupted" true
    (not o.Distributed_scan.result.Busy_beaver.interrupted);
  Alcotest.(check int) "both workers joined" 2
    o.Distributed_scan.stats.Dist.Coordinator.workers_seen

(* the analysis travels in the plan a worker rebuilds from the Welcome:
   forked workers return the local All_1 scan's result, which is not
   the threshold census's *)
let test_fork_all_1 () =
  let plan = Busy_beaver.plan ~analysis:All_1 ~chunk:8 ~max_input:8 ~n:2 () in
  let reference =
    Busy_beaver.scan ~analysis:All_1 ~chunk:8 ~max_input:8 ~n:2 ()
  in
  let o = Distributed_scan.coordinate ~workers:2 ~plan () in
  Alcotest.(check bool) "result identical to the local All_1 scan" true
    (result_eq o.Distributed_scan.result reference);
  Alcotest.(check bool) "the census differs" false
    (result_eq reference (Busy_beaver.scan ~chunk:8 ~max_input:8 ~n:2 ()))

(* every snapshot write fails, the adoption's included; the scan still
   completes, as the local driver's does *)
let test_fork_unwritable_checkpoint () =
  let plan = Busy_beaver.plan ~chunk:8 ~max_input:8 ~n:2 () in
  let reference = Distributed_scan.coordinate ~workers:1 ~plan () in
  let o =
    Distributed_scan.coordinate ~workers:1
      ~checkpoint:"/nonexistent-dir/scan.ckpt" ~plan ()
  in
  let r = o.Distributed_scan.result in
  Alcotest.(check bool) "result identical to the unchecked run" true
    (result_eq r reference.Distributed_scan.result);
  Alcotest.(check int) "every chunk completed" r.Busy_beaver.total_chunks
    r.Busy_beaver.completed_chunks

let with_temp_checkpoint f =
  let path = Filename.temp_file "distscan" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* The killed worker is the only one, so it holds the first grant and
   SIGKILLs itself after its first result: the loss is certain, and
   the coordinator, left with no worker, ends the scan interrupted.
   Two survivors resume the ledger. Live reassignment to surviving
   workers is fork_chaos_kill_prop's. *)
let test_fork_chaos_kill () =
  with_temp_checkpoint (fun path ->
      let plan = Busy_beaver.plan ~chunk:4 ~max_input:8 ~n:2 () in
      let reference = Busy_beaver.scan ~chunk:4 ~max_input:8 ~n:2 () in
      let o =
        Distributed_scan.coordinate ~workers:1 ~chaos_kill:(0, 1)
          ~checkpoint:path ~plan ()
      in
      let stats = o.Distributed_scan.stats in
      Alcotest.(check int) "the killed worker was noticed" 1
        stats.Dist.Coordinator.workers_lost;
      Alcotest.(check int) "its one result was kept" 1
        stats.Dist.Coordinator.chunks_done;
      Alcotest.(check bool) "no worker left: interrupted" true
        o.Distributed_scan.result.Busy_beaver.interrupted;
      let resumed =
        Distributed_scan.coordinate ~workers:2 ~checkpoint:path ~resume:true
          ~plan ()
      in
      Alcotest.(check bool) "resumed result identical despite the SIGKILL"
        true
        (result_eq resumed.Distributed_scan.result reference);
      Alcotest.(check int) "the resume ran the other chunks"
        (Busy_beaver.plan_chunks plan - 1)
        resumed.Distributed_scan.stats.Dist.Coordinator.chunks_done)

let test_fork_checkpoint_epochs () =
  with_temp_checkpoint (fun path ->
      let plan = Busy_beaver.plan ~chunk:8 ~max_input:8 ~n:2 () in
      let o1 = Distributed_scan.coordinate ~workers:1 ~checkpoint:path ~plan () in
      Alcotest.(check bool) "first run completes" true
        (not o1.Distributed_scan.result.Busy_beaver.interrupted);
      (match Obs.Checkpoint.load path with
       | Error e -> Alcotest.fail e
       | Ok c ->
         Alcotest.(check int) "first adoption is epoch 1" 1
           (Obs.Checkpoint.epoch c);
         Alcotest.(check int) "ledger is complete" (Obs.Checkpoint.num_done c)
           c.Obs.Checkpoint.total_chunks);
      (* resuming a complete ledger: adopt (epoch 2), nothing to scan,
         same result from the restored accumulators *)
      let o2 =
        Distributed_scan.coordinate ~workers:1 ~checkpoint:path ~resume:true
          ~plan ()
      in
      Alcotest.(check bool) "resumed result identical" true
        (result_eq o1.Distributed_scan.result o2.Distributed_scan.result);
      Alcotest.(check int) "no chunk re-scanned" 0
        o2.Distributed_scan.stats.Dist.Coordinator.chunks_done;
      match Obs.Checkpoint.load path with
      | Error e -> Alcotest.fail e
      | Ok c ->
        Alcotest.(check int) "second adoption bumped the epoch" 2
          (Obs.Checkpoint.epoch c))

(* A chunk state no merge could read is refused when the ledger is
   opened — by the local scan and the coordinator alike, before any
   worker is forked and without touching the file — not after a whole
   scan. *)
let test_malformed_state_refused_on_open () =
  with_temp_checkpoint (fun path ->
      let plan = Busy_beaver.plan ~chunk:8 ~max_input:8 ~n:2 () in
      let c =
        Obs.Checkpoint.create ~config:(Busy_beaver.plan_config plan)
          ~total_chunks:(Busy_beaver.plan_chunks plan)
      in
      Obs.Checkpoint.mark_done c 0 (Busy_beaver.scan_chunk plan 0);
      Obs.Checkpoint.mark_done c 1
        (Obs.Json.Obj [ ("scanned", Obs.Json.String "x") ]);
      Obs.Checkpoint.save ~path c;
      let bytes () = In_channel.with_open_bin path In_channel.input_all in
      let before = bytes () in
      List.iter
        (fun (who, resume_from) ->
          (match resume_from () with
           | () -> Alcotest.failf "%s resumed a malformed chunk state" who
           | exception Invalid_argument e ->
             Alcotest.(check bool) (who ^ ": the error names the chunk") true
               (contains e "chunk 1" && contains e path));
          Alcotest.(check bool) (who ^ ": the ledger is untouched") true
            (bytes () = before))
        [
          ( "Distributed_scan.coordinate",
            fun () ->
              ignore
                (Distributed_scan.coordinate ~workers:1 ~checkpoint:path
                   ~resume:true ~plan ()) );
          ( "Busy_beaver.scan",
            fun () ->
              ignore
                (Busy_beaver.scan ~chunk:8 ~max_input:8 ~n:2 ~checkpoint:path
                   ~resume:true ()) );
        ])

(* Local and distributed scans keep the same ledger: a scan stopped
   under one finishes under the other, to the uninterrupted result. *)
let test_cross_resume () =
  let plan = Busy_beaver.plan ~chunk:4 ~max_input:8 ~n:2 () in
  let scan ~should_stop ~resume path =
    Busy_beaver.scan ~jobs:1 ~chunk:4 ~max_input:8 ~n:2 ~checkpoint:path
      ~checkpoint_every_chunks:1 ~should_stop ~resume ()
  in
  let coordinate ~should_stop ~resume path =
    (Distributed_scan.coordinate ~workers:1 ~checkpoint:path
       ~checkpoint_every_chunks:1 ~should_stop ~resume ~plan ())
      .Distributed_scan.result
  in
  let reference = Busy_beaver.scan ~chunk:4 ~max_input:8 ~n:2 () in
  (* stop once the ledger on disk holds a few chunks *)
  let stop_at path () =
    match Obs.Checkpoint.load path with
    | Ok c -> Obs.Checkpoint.num_done c >= 3
    | Error _ -> false
  in
  List.iter
    (fun (case, first, second) ->
      with_temp_checkpoint (fun path ->
          let stopped = first ~should_stop:(stop_at path) ~resume:false path in
          Alcotest.(check bool) (case ^ ": the first run stopped early") true
            (stopped.Busy_beaver.interrupted
            && stopped.Busy_beaver.completed_chunks
               < stopped.Busy_beaver.total_chunks);
          let resumed = second ~should_stop:(fun () -> false) ~resume:true path in
          Alcotest.(check bool) (case ^ ": resumed result identical") true
            (result_eq resumed reference);
          Alcotest.(check int) (case ^ ": every chunk completed")
            resumed.Busy_beaver.total_chunks resumed.Busy_beaver.completed_chunks))
    [
      ("local, then workers", scan, coordinate);
      ("workers, then local", coordinate, scan);
    ]

let test_fork_telemetry () =
  let events_path = Filename.temp_file "distscan" ".events.jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove events_path with Sys_error _ -> ())
    (fun () ->
      let plan = Busy_beaver.plan ~chunk:4 ~max_input:8 ~n:2 () in
      let reference = Busy_beaver.scan ~chunk:4 ~max_input:8 ~n:2 () in
      Obs.Events.start_file events_path;
      let o =
        Fun.protect
          ~finally:(fun () -> Obs.Events.stop ())
          (fun () -> Distributed_scan.coordinate ~workers:2 ~plan ())
      in
      Alcotest.(check bool) "telemetry does not change the result" true
        (result_eq o.Distributed_scan.result reference);
      let fleet = o.Distributed_scan.stats.Dist.Coordinator.fleet in
      Alcotest.(check int) "both workers in the fleet summary" 2
        (List.length fleet);
      Alcotest.(check int) "fleet chunk counts sum to the total"
        o.Distributed_scan.stats.Dist.Coordinator.chunks_done
        (List.fold_left
           (fun acc w -> acc + w.Obs.Export.fw_chunks_done)
           0 fleet);
      (* the merged log: coordinator's own dist.* records plus the
         workers' forwarded worker.chunk records, worker-tagged *)
      let lines =
        In_channel.with_open_text events_path In_channel.input_lines
      in
      let records =
        List.filter_map
          (fun l ->
            match Obs.Json.parse l with
            | Ok (Obs.Json.Obj f) when not (List.mem_assoc "schema" f) ->
              Some f
            | _ -> None)
          lines
      in
      let ev_is name f =
        List.assoc_opt "ev" f = Some (Obs.Json.String name)
      in
      Alcotest.(check bool) "dist.worker_join recorded" true
        (List.exists (ev_is "dist.worker_join") records);
      let chunk_records = List.filter (ev_is "worker.chunk") records in
      Alcotest.(check bool) "forwarded worker.chunk records present" true
        (chunk_records <> []);
      Alcotest.(check bool) "every forwarded record is worker-tagged" true
        (List.for_all
           (fun f ->
             match List.assoc_opt "worker" f with
             | Some (Obs.Json.String _) -> true
             | _ -> false)
           chunk_records);
      (* and the same log feeds the fleet analytics *)
      let report = Obs.Fleet_stats.analyse lines in
      Alcotest.(check int) "fleet report sees both workers" 2
        (List.length report.Obs.Fleet_stats.workers);
      Alcotest.(check bool) "fleet markdown renders" true
        (String.length (Obs.Fleet_stats.to_markdown report) > 0))

(* -- Worker: cached chunk states resend instead of redoing ------------------- *)

let test_worker_cache_resends () =
  (* scripted coordinator in a child process: Welcome, the same Grant
     twice (what a lease expiry after a lost Result produces), then
     Shutdown. The worker must compute each chunk once and answer the
     second Grant from its cache. *)
  let coord_fd, worker_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    Unix.close worker_fd;
    let rd = Dist.Wire.reader coord_fd in
    let send = Dist.Wire.send coord_fd in
    let ok = ref true in
    let rec wait_results n =
      if n > 0 then
        match Dist.Wire.recv rd with
        | Some (Dist.Wire.Result _) -> wait_results (n - 1)
        | Some (Dist.Wire.Hello _ | Dist.Wire.Heartbeat _) -> wait_results n
        | Some _ | None -> ok := false
    in
    (match Dist.Wire.recv rd with
     | Some (Dist.Wire.Hello _) -> ()
     | _ -> ok := false);
    send
      (Dist.Wire.Welcome
         {
           config = Obs.Json.Obj [];
           config_hash = "h";
           epoch = 1;
           total_chunks = 3;
           telemetry = false;
         });
    send (Dist.Wire.Grant { lo_chunk = 0; hi_chunk = 3; epoch = 1 });
    wait_results 3;
    send (Dist.Wire.Grant { lo_chunk = 0; hi_chunk = 3; epoch = 1 });
    wait_results 3;
    send Dist.Wire.Shutdown;
    (* drain the worker's final telemetry flush until EOF *)
    (try
       let rec drain () =
         match Dist.Wire.recv rd with Some _ -> drain () | None -> ()
       in
       drain ()
     with Dist.Wire.Protocol_error _ -> ());
    Unix._exit (if !ok then 0 else 1)
  | pid ->
    Unix.close coord_fd;
    let scans = ref 0 in
    let runner _config =
      Ok
        {
          Dist.Worker.scan =
            (fun i ->
              incr scans;
              Obs.Json.Int i);
          chunks = 3;
          range = None;
        }
    in
    let res =
      Dist.Worker.run ~heartbeat_every:0.2 ~name:"cachetest" ~fd:worker_fd
        ~runner ()
    in
    (try Unix.close worker_fd with Unix.Unix_error _ -> ());
    let _, status = Unix.waitpid [] pid in
    Alcotest.(check bool) "worker ran to Shutdown" true (res = Ok ());
    Alcotest.(check int) "each chunk computed exactly once" 3 !scans;
    Alcotest.(check bool) "scripted coordinator satisfied" true
      (status = Unix.WEXITED 0)

(* -- Worker: a Welcome or Grant outside the derived plan is refused ---------- *)

let plan_runner config =
  Result.map
    (fun plan ->
      {
        Dist.Worker.scan = Busy_beaver.scan_chunk plan;
        chunks = Busy_beaver.plan_chunks plan;
        range = None;
      })
    (Busy_beaver.plan_of_config config)

let welcome ?(hash = "h") config total_chunks =
  Dist.Wire.Welcome
    { config; config_hash = hash; epoch = 1; total_chunks; telemetry = false }

(* A scripted coordinator in a child process answers the worker's Hello
   with [msgs], then waits for it to hang up; the worker runs the real
   plan_of_config runner and must return [Error], never raise. *)
let run_against_script msgs =
  let coord_fd, worker_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    Unix.close worker_fd;
    let rd = Dist.Wire.reader coord_fd in
    (try
       ignore (Dist.Wire.recv rd);
       List.iter (Dist.Wire.send coord_fd) msgs;
       while Dist.Wire.recv rd <> None do () done
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close coord_fd;
    let res =
      match
        Dist.Worker.run ~heartbeat_every:0.2 ~name:"rangetest" ~fd:worker_fd
          ~runner:plan_runner ()
      with
      | r -> r
      | exception e -> Alcotest.failf "worker raised %s" (Printexc.to_string e)
    in
    (try Unix.close worker_fd with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    res

let test_worker_refuses_outside_plan () =
  let plan = Busy_beaver.plan ~n:2 () in
  Alcotest.(check int) "the n = 2 plan has one chunk" 1
    (Busy_beaver.plan_chunks plan);
  let welcome = welcome (Busy_beaver.plan_config plan) in
  (match
     run_against_script
       [ welcome 1; Dist.Wire.Grant { lo_chunk = 1; hi_chunk = 2; epoch = 1 } ]
   with
   | Error e ->
     Alcotest.(check bool) ("the error names chunk 1: " ^ e) true
       (contains e "chunk 1")
   | Ok () -> Alcotest.fail "a Grant outside the plan was served");
  match run_against_script [ welcome 7 ] with
  | Error e ->
    Alcotest.(check bool) ("the error names the count: " ^ e) true
      (contains e "7 chunks")
  | Ok () -> Alcotest.fail "a Welcome with the wrong chunk count was served"

let test_worker_refuses_unplanned_members () =
  let plan = Busy_beaver.plan ~n:2 () in
  List.iter
    (fun (member, value) ->
      match
        run_against_script
          [ welcome (config_with plan member value) (Busy_beaver.plan_chunks plan) ]
      with
      | Error e ->
        Alcotest.(check bool) (Printf.sprintf "refused, naming %s: %s" member e)
          true
          (contains e "rejected coordinator config: " && contains e member)
      | Ok () -> Alcotest.failf "a Welcome with %S was served" member)
    unplanned_members

(* -- Worker: a refused Welcome ends the redial loop ----------------------- *)

(* [run_reconnect] whose [connect] hands out, per session, one end of a
   socketpair whose other end already holds that session's messages; past
   the scripted sessions it fails, which bounds a worker that keeps
   redialling. Returns the outcome, the connect calls and each session's
   peer end (the caller reads what the worker wrote, then closes). *)
let reconnect_through sessions =
  let calls = ref 0 and peers = ref [] in
  let connect () =
    incr calls;
    match List.nth_opt sessions (!calls - 1) with
    | None -> Error "no coordinator"
    | Some msgs ->
      let coord_fd, worker_fd =
        Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
      in
      List.iter (Dist.Wire.send coord_fd) msgs;
      peers := coord_fd :: !peers;
      Ok worker_fd
  in
  let res =
    Dist.Worker.run_reconnect ~heartbeat_every:0.2 ~backoff_base:0.001
      ~name:"redialer" ~connect ~runner:plan_runner ()
  in
  (res, !calls, List.rev !peers)

let test_refused_welcome_is_final () =
  let plan = Busy_beaver.plan ~n:2 () in
  List.iter
    (fun (label, w, reason) ->
      let res, calls, peers = reconnect_through [ [ w ]; [ w ] ] in
      List.iter Unix.close peers;
      match res with
      | Error e ->
        Alcotest.(check int) (label ^ ": one connect") 1 calls;
        Alcotest.(check bool) (label ^ ": the error names the refusal: " ^ e)
          true
          (contains e "rejected coordinator config" && contains e reason)
      | Ok () -> Alcotest.failf "%s: the refused Welcome was served" label)
    [
      ( "undecodable config",
        welcome
          (Obs.Json.Obj [ ("workload", Obs.Json.String "not-a-census") ])
          1,
        "not a bbsearch configuration" );
      ( "wrong chunk count",
        welcome (Busy_beaver.plan_config plan) 7,
        "7 chunks" );
      ( "wall-clock budget",
        welcome (config_with plan "eta_budget_s" (Obs.Json.Float 5.0)) 1,
        "eta_budget_s" );
    ]

(* Session 1 computes chunk 0 of one scan and fails on a worker-bound
   Hello; session 2's Welcome is another scan with as many chunks. The
   cached state of the first must never reach the second: the worker
   refuses the Welcome before reading its Grant. *)
let test_hash_change_refused_before_serving () =
  let scan_of plan =
    let config = Busy_beaver.plan_config plan in
    welcome ~hash:(Obs.Checkpoint.hash_config config) config 1
  in
  let grant = Dist.Wire.Grant { lo_chunk = 0; hi_chunk = 1; epoch = 1 } in
  let res, calls, peers =
    reconnect_through
      [
        [ scan_of (Busy_beaver.plan ~n:2 ()); grant;
          Dist.Wire.Hello { worker = "w"; pid = 1; host = "h"; sent_s = 0.0 } ];
        [ scan_of (Busy_beaver.plan ~max_input:10 ~n:2 ()); grant;
          Dist.Wire.Shutdown ];
      ]
  in
  (* the Results the worker wrote to one session's peer *)
  let results fd =
    let rd = Dist.Wire.reader fd in
    let rec count n =
      match Dist.Wire.recv rd with
      | Some (Dist.Wire.Result _) -> count (n + 1)
      | Some _ -> count n
      | None -> n
    in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> count 0)
  in
  Alcotest.(check (list int)) "chunk 0 served to the first scan only" [ 1; 0 ]
    (List.map results peers);
  Alcotest.(check int) "no redial after the refusal" 2 calls;
  match res with
  | Error e ->
    Alcotest.(check bool) ("the error names the hash change: " ^ e) true
      (contains e "config hash changed")
  | Ok () -> Alcotest.fail "the second scan was served"

(* -- The tentpole invariant end to end: randomized chaos x kill points -------- *)

(* one plan and reference for all iterations; the prop varies the chaos
   profile, its seed and the SIGKILL point. Every run forks 3 real
   worker processes through the socketpair topology with deterministic
   fault injection armed on both sides of every connection. *)
let fork_chaos_plan = Busy_beaver.plan ~chunk:8 ~max_input:6 ~n:2 ()
let fork_chaos_reference = Busy_beaver.scan ~chunk:8 ~max_input:6 ~n:2 ()

let fork_chaos_kill_prop =
  prop "chaos + SIGKILL through real forks stays byte-identical" ~count:100
    QCheck.(
      quad (int_range 0 100_000) (int_range 0 2) (int_range 0 2) (int_range 0 3))
    (fun (seed, profile_idx, kill_worker, kill_after) ->
      let profile =
        chaos_profile (List.nth [ "lossy"; "corrupt"; "wild" ] profile_idx)
      in
      let o =
        Distributed_scan.coordinate ~workers:3 ~heartbeat_timeout:0.35
          ~chaos_kill:(kill_worker, kill_after)
          ~chaos_net:{ Dist.Chaos.profile; seed } ~plan:fork_chaos_plan ()
      in
      result_eq o.Distributed_scan.result fork_chaos_reference
      && not o.Distributed_scan.result.Busy_beaver.interrupted)

(* -- Coordinator crash recovery with a live, reconnecting worker ------------- *)

let test_coordinator_restart_recovery () =
  with_temp_checkpoint (fun path ->
      let plan = Busy_beaver.plan ~chunk:4 ~max_input:8 ~n:2 () in
      let reference = Busy_beaver.scan ~chunk:4 ~max_input:8 ~n:2 () in
      let serve_fd = Distributed_scan.listen ~port:0 () in
      let port =
        match Unix.getsockname serve_fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> Alcotest.fail "listen socket has no port"
      in
      (* first coordinator life: a forked process sharing the listening
         fd, SIGKILLed once the ledger shows progress — the parent then
         resumes on the very same socket, so the port never moves *)
      let coord_pid =
        match Unix.fork () with
        | 0 ->
          (try
             ignore
               (Distributed_scan.coordinate ~serve:serve_fd
                  ~heartbeat_timeout:1.0 ~checkpoint:path
                  ~checkpoint_every_chunks:1 ~checkpoint_every_s:0.05 ~plan ())
           with _ -> ());
          Unix._exit 0
        | pid -> pid
      in
      let worker_pid =
        match Unix.fork () with
        | 0 ->
          let r =
            Distributed_scan.connect_worker ~name:"phoenix"
              ~heartbeat_every:0.25 ~max_attempts:8
              ~backoff_base:0.1 ~host:"127.0.0.1" ~port ()
          in
          Unix._exit (match r with Ok () -> 0 | Error _ -> 1)
        | pid -> pid
      in
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec wait_progress () =
        if Unix.gettimeofday () > deadline then `Timeout
        else
          match Obs.Checkpoint.load path with
          | Ok c when Obs.Checkpoint.num_done c >= c.Obs.Checkpoint.total_chunks
            ->
            `Finished
          | Ok c when Obs.Checkpoint.num_done c > 0 -> `Mid
          | _ ->
            Unix.sleepf 0.01;
            wait_progress ()
      in
      let progress = wait_progress () in
      Alcotest.(check bool) "ledger showed progress before the kill" true
        (progress <> `Timeout);
      Unix.kill coord_pid Sys.sigkill;
      ignore (Unix.waitpid [] coord_pid);
      (* second life: adopt the ledger, bump the epoch, finish the scan
         with the worker that reconnects mid-flight *)
      let o =
        Fun.protect
          ~finally:(fun () ->
            try Unix.close serve_fd with Unix.Unix_error _ -> ())
          (fun () ->
            Distributed_scan.coordinate ~serve:serve_fd ~heartbeat_timeout:1.0
              ~checkpoint:path ~checkpoint_every_chunks:1 ~resume:true ~plan ())
      in
      let _, _wstatus = Unix.waitpid [] worker_pid in
      Alcotest.(check bool) "merged result identical across the crash" true
        (result_eq o.Distributed_scan.result reference);
      Alcotest.(check bool) "recovery run completed" true
        (not o.Distributed_scan.result.Busy_beaver.interrupted);
      match Obs.Checkpoint.load path with
      | Ok c ->
        Alcotest.(check bool) "second adoption bumped the epoch" true
          (Obs.Checkpoint.epoch c >= 2)
      | Error e -> Alcotest.fail e)

let () =
  Alcotest.run "dist"
    [
      ( "wire",
        [
          Alcotest.test_case "message round-trip" `Quick test_wire_roundtrip;
          Alcotest.test_case "telemetry-off Welcome says false" `Quick
            test_wire_welcome_telemetry_false;
          Alcotest.test_case "unknown kind raises Protocol_error" `Quick
            test_wire_unknown_kind;
          wire_unknown_fields_prop;
          wire_fragmentation_prop;
        ] );
      ( "wire-v3",
        [
          Alcotest.test_case "crc32 test vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "send writes canonical v3 frames" `Quick
            test_wire_send_writes_v3_frames;
          Alcotest.test_case "v3 frames round-trip" `Quick
            test_wire_v3_roundtrip;
          Alcotest.test_case "corrupt frames counted and skipped" `Quick
            test_wire_corrupt_frames_skipped;
          Alcotest.test_case "CRC-valid garbage payload raises" `Quick
            test_wire_valid_crc_bad_json_raises;
          Alcotest.test_case "bare lines are counted, not decoded" `Quick
            test_wire_bare_lines_counted;
          Alcotest.test_case "bare garbage is counted on any stream" `Quick
            test_wire_garbage_counted;
          Alcotest.test_case "select_eintr rides out signals" `Quick
            test_select_eintr_rides_signals;
        ]
        @ wire_fuzz_props );
      ( "chaos",
        [
          Alcotest.test_case "parse_spec accepts PROFILE[:SEED]" `Quick
            test_chaos_parse_spec;
          chaos_determinism_prop;
          Alcotest.test_case "finite budget, then passthrough" `Quick
            test_chaos_budget_bounds_faults;
        ] );
      ( "telemetry",
        [
          offset_alignment_prop;
          Alcotest.test_case "alignment skips headers, appends tags" `Quick
            test_align_skips_headers_and_tags;
          Alcotest.test_case "offset estimate is min-filtered" `Quick
            test_offset_min_filter;
        ]
        @ align_fuzz_props );
      ( "lease",
        [
          Alcotest.test_case "grants lowest free chunks" `Quick
            test_lease_grant_lowest_first;
          Alcotest.test_case "batch sizes descend" `Quick
            test_lease_batches_descend;
          Alcotest.test_case "failed worker's leases reclaim" `Quick
            test_lease_fail_worker_reclaims;
          Alcotest.test_case "expiry spares idle workers" `Quick
            test_lease_expire_only_leaseholders;
          Alcotest.test_case "expiry is progress-based" `Quick
            test_lease_expiry_is_progress_based;
          Alcotest.test_case "beat age tracks liveness" `Quick
            test_lease_beat_age;
          Alcotest.test_case "duplicate completion detected" `Quick
            test_lease_duplicate_complete;
          Alcotest.test_case "same-tick grant+complete is progress" `Quick
            test_lease_same_tick_grant_complete;
          Alcotest.test_case "expiry racing a late Result" `Quick
            test_lease_expiry_races_duplicate_result;
          Alcotest.test_case "grant sizing when todo < workers" `Quick
            test_lease_grant_sizing_small_todo;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "v1 checkpoint is refused" `Quick
            test_checkpoint_v1_refused;
          Alcotest.test_case "mismatch diff names the field" `Quick
            test_mismatch_diff;
          Alcotest.test_case "plan_of_config refuses a wall-clock budget"
            `Quick test_plan_refuses_wall_budget;
          Alcotest.test_case "plan_of_config refuses unplanned members"
            `Quick test_plan_refuses_unplanned_members;
          Alcotest.test_case "outside counts are errors, not crashes" `Quick
            test_outside_counts_are_errors;
        ]
        @ checkpoint_fuzz_props @ resume_fuzz_props @ plan_fuzz_props );
      ("recovery", [ kill_recovery_prop ]);
      ( "processes",
        [
          Alcotest.test_case "fork workers, identical result" `Quick
            test_fork_smoke;
          Alcotest.test_case "All_1 plan through fork workers" `Quick
            test_fork_all_1;
          Alcotest.test_case "SIGKILL mid-scan, identical result" `Quick
            test_fork_chaos_kill;
          Alcotest.test_case "checkpoint epochs across adoptions" `Quick
            test_fork_checkpoint_epochs;
          Alcotest.test_case "unwritable checkpoint, scan completes" `Quick
            test_fork_unwritable_checkpoint;
          Alcotest.test_case "malformed chunk state refused on open" `Quick
            test_malformed_state_refused_on_open;
          Alcotest.test_case "local and distributed scans resume each other" `Quick
            test_cross_resume;
          Alcotest.test_case "fleet telemetry over fork workers" `Quick
            test_fork_telemetry;
          Alcotest.test_case "cached chunk states resend, not redo" `Quick
            test_worker_cache_resends;
          Alcotest.test_case "Welcome or Grant outside the plan refused" `Quick
            test_worker_refuses_outside_plan;
          Alcotest.test_case "Welcome with unplanned members refused" `Quick
            test_worker_refuses_unplanned_members;
          Alcotest.test_case "a refused Welcome is not redialled" `Quick
            test_refused_welcome_is_final;
          Alcotest.test_case "config hash change refused before serving" `Quick
            test_hash_change_refused_before_serving;
        ] );
      ( "chaos-e2e",
        [
          fork_chaos_kill_prop;
          Alcotest.test_case "coordinator SIGKILL, resume, rejoin" `Quick
            test_coordinator_restart_recovery;
        ] );
    ]
