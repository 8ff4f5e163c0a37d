type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Rendering: top-level recursive walkers appending to one buffer, so
   no closure, escaped copy or padding string is allocated per node. *)

(* Copies each run of bytes that needs no escaping whole. *)
let add_escaped buf s =
  let n = String.length s in
  let clean = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring buf s !clean (i - !clean);
      clean := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Printf.bprintf buf "\\u%04x" (Char.code c)
    end
  done;
  Buffer.add_substring buf s !clean (n - !clean)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf s;
  Buffer.contents buf

(* The C primitive behind Printf's ["%.17g"] and ["%.1f"]: calling it
   directly gives the same bytes without Printf's format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then format_float "%.1f" f
  else format_float "%.17g" f

(* One rendering: the buffer, the layout and a direct-mapped memo of
   recently printed floats (a trace repeats its timestamps and
   durations: 72 % of a 195,300-float trace hit).  The memo is keyed
   by bit pattern, never by [=]: [0.0] and [-0.0] are equal but print
   differently, and NaNs print by sign.  Slots start as [0.0],
   already rendered, so an empty slot needs no marker. *)
type out = {
  buf : Buffer.t;
  indent : bool;
  keys : Float.Array.t;
  reprs : string array;
}

let memo_slots = 64

let add_float o f =
  let bits = Int64.bits_of_float f in
  let h = Int64.to_int bits in
  let i = (h lxor (h lsr 32)) land (memo_slots - 1) in
  if Int64.bits_of_float (Float.Array.unsafe_get o.keys i) = bits then
    Buffer.add_string o.buf (Array.unsafe_get o.reprs i)
  else begin
    let s = float_repr f in
    Float.Array.unsafe_set o.keys i f;
    Array.unsafe_set o.reprs i s;
    Buffer.add_string o.buf s
  end

(* Indentation is cut from one shared string of spaces. *)
let spaces = String.make 64 ' '

let rec add_spaces buf n =
  if n > 0 then begin
    let k = min n (String.length spaces) in
    Buffer.add_substring buf spaces 0 k;
    add_spaces buf (n - k)
  end

let newline o level =
  if o.indent then begin
    Buffer.add_char o.buf '\n';
    add_spaces o.buf (2 * level)
  end

(* Digits straight into the buffer: [string_of_int] is a C call and a
   fresh string per int. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_int buf i =
  if i >= 0 then add_digits buf i else Buffer.add_string buf (string_of_int i)

let add_string o s =
  Buffer.add_char o.buf '"';
  add_escaped o.buf s;
  Buffer.add_char o.buf '"'

let rec value o level = function
  | Null -> Buffer.add_string o.buf "null"
  | Bool b -> Buffer.add_string o.buf (if b then "true" else "false")
  | Int i -> add_int o.buf i
  | Float f -> add_float o f
  | String s -> add_string o s
  | List [] -> Buffer.add_string o.buf "[]"
  | List (x :: xs) ->
      Buffer.add_char o.buf '[';
      newline o (level + 1);
      value o (level + 1) x;
      items o (level + 1) xs;
      newline o level;
      Buffer.add_char o.buf ']'
  | Obj [] -> Buffer.add_string o.buf "{}"
  | Obj ((k, v) :: kvs) ->
      Buffer.add_char o.buf '{';
      newline o (level + 1);
      field o (level + 1) k v;
      fields o (level + 1) kvs;
      newline o level;
      Buffer.add_char o.buf '}'

and items o level = function
  | [] -> ()
  | x :: xs ->
      Buffer.add_char o.buf ',';
      newline o level;
      value o level x;
      items o level xs

and field o level k v =
  add_string o k;
  Buffer.add_string o.buf (if o.indent then ": " else ":");
  value o level v

and fields o level = function
  | [] -> ()
  | (k, v) :: kvs ->
      Buffer.add_char o.buf ',';
      newline o level;
      field o level k v;
      fields o level kvs

let render ~indent t =
  let o =
    {
      buf = Buffer.create 256;
      indent;
      keys = Float.Array.make memo_slots 0.0;
      reprs = Array.make memo_slots (float_repr 0.0);
    }
  in
  value o 0 t;
  Buffer.contents o.buf

let to_string t = render ~indent:false t
let to_string_pretty t = render ~indent:true t

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent over the byte string.                    *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail "invalid literal"
  in
  let add_utf8 buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let code =
      match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
      | Some c -> c
      | None -> fail "bad \\u escape"
    in
    pos := !pos + 4;
    code
  in
  let is_low code = code >= 0xDC00 && code <= 0xDFFF in
  (* A code point above U+FFFF arrives as a high/low surrogate pair of
     escapes; either half alone is not a character. *)
  let unicode_escape buf =
    let code = hex4 () in
    if is_low code then fail "unpaired low surrogate"
    else if code >= 0xD800 && code <= 0xDBFF then begin
      if not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
        fail "unpaired high surrogate";
      pos := !pos + 2;
      let low = hex4 () in
      if not (is_low low) then fail "unpaired high surrogate";
      add_utf8 buf (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
    end
    else add_utf8 buf code
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
          incr pos;
          Buffer.contents buf
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' ->
              Buffer.add_char buf '"';
              incr pos
          | '\\' ->
              Buffer.add_char buf '\\';
              incr pos
          | '/' ->
              Buffer.add_char buf '/';
              incr pos
          | 'b' ->
              Buffer.add_char buf '\b';
              incr pos
          | 'f' ->
              Buffer.add_char buf '\012';
              incr pos
          | 'n' ->
              Buffer.add_char buf '\n';
              incr pos
          | 'r' ->
              Buffer.add_char buf '\r';
              incr pos
          | 't' ->
              Buffer.add_char buf '\t';
              incr pos
          | 'u' ->
              incr pos;
              unicode_escape buf
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          go ()
      | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_digit c = c >= '0' && c <= '9' in
    if peek () = Some '-' then incr pos;
    while !pos < n && is_digit s.[!pos] do
      incr pos
    done;
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      incr pos;
      while !pos < n && is_digit s.[!pos] do
        incr pos
      done
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        while !pos < n && is_digit s.[!pos] do
          incr pos
        done
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if text = "" || text = "-" then fail "invalid number";
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "invalid number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "invalid number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                field ()
            | Some '}' -> incr pos
            | _ -> fail "expected ',' or '}'"
          in
          field ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [] in
          let rec item () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                item ()
            | Some ']' -> incr pos
            | _ -> fail "expected ',' or ']'"
          in
          item ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg
