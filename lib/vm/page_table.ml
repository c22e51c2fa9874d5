type t = {
  page_size : int;
  default_tint : Tint.t;
  entries : (int, Tint.t) Hashtbl.t;
  mutable pte_writes : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ?(default_tint = Tint.default) ~page_size () =
  if not (is_power_of_two page_size) then
    invalid_arg "Page_table.create: page_size must be a power of two";
  { page_size; default_tint; entries = Hashtbl.create 64; pte_writes = 0 }

let page_size t = t.page_size
let page_of_addr t addr = addr / t.page_size
let base_of_page t page = page * t.page_size

let set_tint t ~page tint =
  if page < 0 then invalid_arg "Page_table.set_tint: negative page";
  if Tint.equal tint t.default_tint then Hashtbl.remove t.entries page
  else Hashtbl.replace t.entries page tint;
  t.pte_writes <- t.pte_writes + 1

let set_tint_region t ~base ~size tint =
  if size <= 0 then invalid_arg "Page_table.set_tint_region: size must be positive";
  let first = page_of_addr t base in
  let last = page_of_addr t (base + size - 1) in
  for page = first to last do
    set_tint t ~page tint
  done;
  last - first + 1

(* Untinted tables (every sweep's) answer without hashing the page. *)
let tint_of_page t page =
  if Hashtbl.length t.entries = 0 then t.default_tint
  else
    match Hashtbl.find_opt t.entries page with
    | Some tint -> tint
    | None -> t.default_tint

let tint_of_addr t addr = tint_of_page t (page_of_addr t addr)

let pages_with_tint t tint =
  Hashtbl.fold
    (fun page tint' acc -> if Tint.equal tint tint' then page :: acc else acc)
    t.entries []
  |> List.sort Int.compare

let entries t = Hashtbl.length t.entries
let pte_writes t = t.pte_writes

let pp ppf t =
  let pages = Hashtbl.fold (fun p tint acc -> (p, tint) :: acc) t.entries [] in
  let pages = List.sort (fun (a, _) (b, _) -> Int.compare a b) pages in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (page, tint) -> Format.fprintf ppf "page %d -> %a@," page Tint.pp tint)
    pages;
  Format.fprintf ppf "@]"
