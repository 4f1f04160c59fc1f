(* Minimal JSON for the observability layer: an AST, a deterministic
   serializer (stable field order is the caller's job; float formatting
   and escaping are canonical here, so equal values always produce equal
   bytes) and a recursive-descent parser for the regression gate.  No
   external dependency: the opam switch carries no yojson.

   JSON has no NaN/infinity literals; non-finite floats serialize as
   [null], which is how empty-sample statistics appear in reports. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Serialization *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Canonical float image: integral values print as "x.0", everything else
   with enough digits to round-trip.  Identical inputs yield identical
   bytes, which is what makes same-seed reports byte-comparable. *)
let float_image f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec write buf ~indent ~level v =
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let newline () = if indent then Buffer.add_char buf '\n' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      if Float.is_nan f || Float.abs f = infinity then
        Buffer.add_string buf "null"
      else Buffer.add_string buf (float_image f)
  | Str s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      newline ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (level + 1);
          write buf ~indent ~level:(level + 1) item)
        items;
      newline ();
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      newline ();
      List.iteri
        (fun i (k, item) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (level + 1);
          escape_string buf k;
          Buffer.add_string buf (if indent then ": " else ":");
          write buf ~indent ~level:(level + 1) item)
        fields;
      newline ();
      pad level;
      Buffer.add_char buf '}'

let to_string ?(minify = false) v =
  let buf = Buffer.create 1024 in
  write buf ~indent:(not minify) ~level:0 v;
  if not minify then Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing *)

exception Parse_error of string

type parser_state = { src : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | _ -> continue_ := false
  done

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | _ -> error st (Printf.sprintf "expected %c" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected %s" word)

(* Encode a Unicode code point as UTF-8 bytes. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
    | Some c ->
        let d =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | _ -> error st "bad \\u escape"
        in
        v := (!v * 16) + d
    | None -> error st "truncated \\u escape");
    advance st
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
        advance st;
        (match peek st with
        | Some '"' -> Buffer.add_char buf '"'; advance st
        | Some '\\' -> Buffer.add_char buf '\\'; advance st
        | Some '/' -> Buffer.add_char buf '/'; advance st
        | Some 'n' -> Buffer.add_char buf '\n'; advance st
        | Some 't' -> Buffer.add_char buf '\t'; advance st
        | Some 'r' -> Buffer.add_char buf '\r'; advance st
        | Some 'b' -> Buffer.add_char buf '\b'; advance st
        | Some 'f' -> Buffer.add_char buf '\012'; advance st
        | Some 'u' ->
            advance st;
            let cp = hex4 st in
            (* combine surrogate pairs when both halves are present *)
            if cp >= 0xD800 && cp <= 0xDBFF then begin
              match peek st with
              | Some '\\' ->
                  advance st;
                  expect st 'u';
                  let lo = hex4 st in
                  if lo >= 0xDC00 && lo <= 0xDFFF then
                    add_utf8 buf
                      (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
                  else begin
                    add_utf8 buf cp;
                    add_utf8 buf lo
                  end
              | _ -> add_utf8 buf cp
            end
            else add_utf8 buf cp
        | _ -> error st "bad escape");
        go ()
    | Some c -> Buffer.add_char buf c; advance st; go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_number_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_number_char c | None -> false) do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  let is_float =
    String.exists (function '.' | 'e' | 'E' -> true | _ -> false) text
  in
  if is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> error st (Printf.sprintf "bad number %S" text)
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> error st (Printf.sprintf "bad number %S" text))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> Str (parse_string st)
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let items = ref [] in
        let rec go () =
          items := parse_value st :: !items;
          skip_ws st;
          match peek st with
          | Some ',' -> advance st; go ()
          | Some ']' -> advance st
          | _ -> error st "expected , or ] in array"
        in
        go ();
        List (List.rev !items)
      end
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec go () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          fields := (k, v) :: !fields;
          skip_ws st;
          match peek st with
          | Some ',' -> advance st; go ()
          | Some '}' -> advance st
          | _ -> error st "expected , or } in object"
        in
        go ();
        Obj (List.rev !fields)
      end
  | Some _ -> parse_number st

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let rec path keys v =
  match keys with
  | [] -> Some v
  | k :: rest -> ( match member k v with Some v -> path rest v | None -> None)

let get_int = function Int n -> Some n | _ -> None

let get_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let get_string = function Str s -> Some s | _ -> None
let get_list = function List l -> Some l | _ -> None
