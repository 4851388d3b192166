"""Per-file syntactic rules (the original tcb-lint rule pack).

These enforce invariants that generic clang-tidy checks cannot express
because they are about *this* project's architecture (DESIGN.md §7):
token-accessor ownership, concurrency confinement, virtual-clock purity,
checked span boundaries, memory ownership, the sync-wrapper monopoly,
annotated shared state, and the include-layering DAG.
"""

from __future__ import annotations

import os
import re

from tcb_lint.rules import Rule, register, scan_lines
from tcb_lint.source import Finding, SourceFile


@register
class NoRawTokenIndexing(Rule):
    """Token storage has one owning accessor; raw indexing re-opens a bug.

    The packed id matrix is rows x width flattened; indexing it by hand is
    how the transposed-batch bug happened (row/column swapped, plausible
    tokens, wrong requests). PackedBatch::token_at carries the strong Row/
    Col axes and the bounds check.

    Violation:
        Index id = batch.tokens[r * width + c];
    Clean:
        Index id = batch.token_at(Row{r}, Col{c});
    """

    name = "no-raw-token-indexing"
    description = ("token storage is indexed only through its owning accessor "
                   "(PackedBatch::token_at / flat_offset); raw tokens[...] or "
                   "tokens.data() arithmetic elsewhere reintroduces the "
                   "swapped-row/column bug class")
    OWNERS = ("src/batching/packed_batch.hpp", "src/batching/packed_batch.cpp")
    PATTERN = re.compile(r"\btokens\s*(\[|\.\s*data\s*\()")

    def applies_to(self, path: str) -> bool:
        return path not in self.OWNERS

    def check(self, sf: SourceFile) -> list[Finding]:
        return scan_lines(
            sf, self.PATTERN, self.name,
            "raw token-buffer indexing outside the owning accessor; go through "
            "PackedBatch::token_at(Row, Col) or Request token helpers")


@register
class ThreadsOnlyInParallel(Rule):
    """Raw threads live in src/parallel/ only.

    One pool owns all worker threads (sized once, instrumented once);
    ad-hoc std::thread/std::async elsewhere escapes its sizing, shutdown
    and the lint rules that reason about the pool's lock discipline.

    Violation (outside src/parallel/):
        std::thread t([&] { work(); }); t.join();
    Clean:
        parallel_for(n, [&](std::size_t b, std::size_t e) { work(b, e); });
    """

    name = "threads-only-in-parallel"
    description = ("concurrency primitives (std::thread/async/mutex/"
                   "condition_variable...) are confined to src/parallel/; "
                   "everything else uses the ThreadPool API")
    PATTERN = re.compile(
        r"\bstd\s*::\s*(thread|jthread|async|mutex|timed_mutex|recursive_mutex|"
        r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
        r"condition_variable(_any)?)\b")

    def applies_to(self, path: str) -> bool:
        in_scope = path.startswith(("src/", "tests/", "bench/", "examples/"))
        return in_scope and not path.startswith(("src/parallel/", "tests/parallel/"))

    def check(self, sf: SourceFile) -> list[Finding]:
        return scan_lines(
            sf, self.PATTERN, self.name,
            "raw concurrency primitive outside src/parallel/; submit work "
            "through tcb::ThreadPool instead")


@register
class NoWallClockInSched(Rule):
    """Scheduling code runs on the virtual clock.

    src/sched/ and src/serving/ are replayed deterministically in tests
    and simulations; a steady_clock::now() hiding in a policy makes the
    replay diverge from production in ways no test can pin.

    Violation (in src/sched/):
        auto now = std::chrono::steady_clock::now();
    Clean:
        TimePoint now = clock.now();   // injected virtual clock
    """

    name = "no-wall-clock-in-sched"
    description = ("src/sched/ and src/serving/ run on the deterministic "
                   "virtual clock; wall-clock reads (steady_clock::now, "
                   "Timer) break replayability unless explicitly allowed")
    PATTERN = re.compile(
        r"\b(system_clock|steady_clock|high_resolution_clock)\s*::\s*now\s*\(|"
        r"\bTimer\b")

    def applies_to(self, path: str) -> bool:
        return path.startswith(("src/sched/", "src/serving/"))

    def check(self, sf: SourceFile) -> list[Finding]:
        return scan_lines(
            sf, self.PATTERN, self.name,
            "wall-clock read in virtual-clock code; use the simulation clock, "
            "or annotate a deliberate overhead measurement with "
            "// tcb-lint: allow(no-wall-clock-in-sched)")


@register
class CheckedEngineBoundary(Rule):
    """(offset, length) pairs must be validated before use.

    A span crossing the engine boundary unchecked reads another request's
    rows on a malformed plan — plausible output, no crash. The check is
    the contract that makes downstream raw index math auditable.

    Violation:
        void copy_span(const float* src, Index offset, Index length) {
          consume(src + offset, length);
        }
    Clean:
        void copy_span(const float* src, Index offset, Index length) {
          TCB_CHECK(offset >= 0 && length > 0, "bad span");
          consume(src + offset, length);
        }
    """

    name = "checked-engine-boundary"
    description = ("function definitions taking an (offset, length)-style "
                   "parameter pair must validate the span with "
                   "TCB_CHECK/TCB_DCHECK before indexing with it")
    # A function header: name(params) [qualifiers] {   -- captured lazily and
    # verified by counting braces from the opening one.
    HEADER_RE = re.compile(
        r"\b([A-Za-z_]\w*)\s*\(([^()]*)\)\s*"
        r"(?:const\s*)?(?:noexcept\s*)?(?:->\s*[\w:<>]+\s*)?\{", re.S)
    OFFSET_RE = re.compile(r"\b\w*(offset|begin|start)\w*\b", re.I)
    LENGTH_RE = re.compile(r"\b\w*(length|len|count)\w*\b", re.I)
    CHECK_RE = re.compile(r"\bTCB_D?CHECK\b")
    KEYWORDS = {"if", "for", "while", "switch", "return", "catch", "sizeof",
                "static_assert", "decltype", "alignof", "new", "delete"}

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/")

    def check(self, sf: SourceFile) -> list[Finding]:
        code = sf.code()
        out = []
        for m in self.HEADER_RE.finditer(code):
            fn_name, params = m.group(1), m.group(2)
            if fn_name in self.KEYWORDS:
                continue
            if not (self.OFFSET_RE.search(params) and self.LENGTH_RE.search(params)):
                continue
            body = self._body(code, m.end() - 1)
            if body is None or self.CHECK_RE.search(body):
                continue
            line_no = code.count("\n", 0, m.start()) + 1
            if sf.suppressed(self.name, line_no):
                continue
            out.append(Finding(
                self.name, sf.path, line_no,
                f"'{fn_name}' takes an offset/length pair but its body has no "
                "TCB_CHECK/TCB_DCHECK guarding the span"))
        return out

    @staticmethod
    def _body(code: str, open_brace: int) -> str | None:
        depth = 0
        for i in range(open_brace, len(code)):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth == 0:
                    return code[open_brace + 1:i]
        return None


@register
class NoRawNewDelete(Rule):
    """Ownership goes through containers and smart pointers.

    A raw new/delete pair is an exception-safety hole and an ownership
    question every reader must re-answer; the engine has no allocation
    pattern vectors/unique_ptr cannot express.

    Violation:
        float* buf = new float[n]; ... delete[] buf;
    Clean:
        std::vector<float> buf(n);
    """

    name = "no-raw-new-delete"
    description = ("first-party engine code owns memory through containers "
                   "and smart pointers; raw new/delete expressions are "
                   "forbidden in src/")
    PATTERN = re.compile(r"(?<!_)\b(new|delete)\b(?!_)(?!\s*\()")
    DELETED_FN_RE = re.compile(r"=\s*delete\b")

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/")

    def check(self, sf: SourceFile) -> list[Finding]:
        out = []
        for idx, line in enumerate(sf.lines, start=1):
            # `= delete` declarations are the C++ idiom, not a deallocation.
            scrubbed = self.DELETED_FN_RE.sub("", line)
            if self.PATTERN.search(scrubbed) and not sf.suppressed(self.name, idx):
                out.append(Finding(
                    self.name, sf.path, idx,
                    "raw new/delete expression; use std::vector, "
                    "std::unique_ptr, or std::make_unique"))
        return out


@register
class UseTcbSync(Rule):
    """Synchronization goes through the annotated tcb:: wrappers.

    tcb::Mutex/CondVar/MutexLock carry the capability annotations that
    clang's thread-safety analysis and tcb-lint's whole-program rules
    (lock-order-graph, no-blocking-under-lock) key on; a raw std::mutex
    is invisible to all of them.

    Violation (outside src/parallel/sync.hpp):
        std::mutex m; std::lock_guard<std::mutex> g(m);
    Clean:
        Mutex m TCB_GUARDS(state_); MutexLock lock(m);
    """

    name = "use-tcb-sync"
    description = ("raw std synchronization primitives (mutex, "
                   "condition_variable, lock_guard, unique_lock, ...) are "
                   "confined to src/parallel/sync.hpp; everything else uses "
                   "the annotated tcb::Mutex/CondVar/MutexLock wrappers so "
                   "Clang Thread Safety Analysis can check the lock "
                   "discipline")
    OWNER = "src/parallel/sync.hpp"
    PATTERN = re.compile(
        r"\bstd\s*::\s*(mutex|timed_mutex|recursive_mutex|"
        r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
        r"condition_variable(_any)?|lock_guard|unique_lock|scoped_lock|"
        r"shared_lock)\b")

    def applies_to(self, path: str) -> bool:
        in_scope = path.startswith(("src/", "tests/", "bench/", "examples/"))
        return in_scope and path != self.OWNER

    def check(self, sf: SourceFile) -> list[Finding]:
        return scan_lines(
            sf, self.PATTERN, self.name,
            "raw synchronization primitive outside parallel/sync.hpp; use "
            "tcb::Mutex / tcb::CondVar / tcb::MutexLock so the thread "
            "safety analysis sees the lock")


@register
class AnnotatedSharedState(Rule):
    """Every mutex and atomic must declare its role.

    An unannotated mutex protects "something"; an unannotated atomic is
    either lock-free by design or a data-race patch. The annotation makes
    the intent checkable: TCB_GUARDS names the protected state, and the
    whole-program rules verify the discipline.

    Violation:
        Mutex mu_; std::atomic<int> hits_;
    Clean:
        Mutex mu_ TCB_GUARDS(queue_); std::atomic<int> hits_ TCB_LOCK_FREE;
    """

    name = "annotated-shared-state"
    description = ("every tcb::Mutex or std::atomic declaration in src/ "
                   "must declare its role in the lock discipline: "
                   "TCB_GUARDS(...) on a mutex (what it protects), "
                   "TCB_GUARDED_BY(...) or TCB_LOCK_FREE on an atomic, or "
                   "an explicit // tcb-lint: allow(annotated-shared-state)")
    # A mutex- or atomic-typed declaration starting a line. MutexLock (the
    # scope) is excluded by the lookahead; raw std mutexes are use-tcb-sync's
    # business, so only the sanctioned tcb::Mutex and std::atomic are here.
    DECL_RE = re.compile(
        r"^\s*(?:mutable\s+)?(?:static\s+)?(?:inline\s+)?"
        r"(?:(?:tcb\s*::\s*)?Mutex(?!Lock)\b"
        r"|std\s*::\s*atomic(?:_flag\b|\w*\b)?(?:\s*<[^;{}()]*>)?)"
        r"\s+\w+")
    ANNOT_RE = re.compile(
        r"\bTCB_(GUARDS|GUARDED_BY|PT_GUARDED_BY|LOCK_FREE|"
        r"ACQUIRED_BEFORE|ACQUIRED_AFTER|LOCK_ORDER_ANCHOR)\b")

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/")

    def check(self, sf: SourceFile) -> list[Finding]:
        out = []
        for idx, line in enumerate(sf.lines, start=1):
            if not self.DECL_RE.match(line):
                continue
            # The annotation may sit on the declaration's continuation line
            # when the declarator wraps; join until the terminating ';'.
            stmt = line
            if ";" not in line and idx < len(sf.lines):
                stmt += " " + sf.lines[idx]
            if self.ANNOT_RE.search(stmt) or sf.suppressed(self.name, idx):
                continue
            out.append(Finding(
                self.name, sf.path, idx,
                "mutex/atomic declaration without a lock-discipline "
                "annotation; add TCB_GUARDS(...) / TCB_GUARDED_BY(...) / "
                "TCB_LOCK_FREE (see src/parallel/sync.hpp and DESIGN.md §9)"))
        return out


@register
class IncludeLayering(Rule):
    """src/ modules form a DAG; includes may only point down it.

    util < tensor < {parallel, batching} < nn < sched < serving (see
    DESIGN.md). An upward include (tensor -> nn) couples a kernel to model
    policy and eventually cycles. Sub-DAGs inside util/ and serving/ keep
    the bottom layer and the pipeline honest too.

    Violation (in src/tensor/):
        #include "nn/attention.hpp"
    Clean:
        #include "util/check.hpp"
    """

    name = "include-layering"
    description = ("#include edges between src/ modules must follow the "
                   "layering DAG (DESIGN.md): util at the bottom, core at "
                   "the top; e.g. sched may not include nn")
    # module -> modules it may include (its own module is always allowed).
    DAG = {
        "util": set(),
        "parallel": {"util"},
        "tensor": {"parallel", "util"},
        "batching": {"parallel", "tensor", "util"},
        "text": {"batching", "tensor", "util"},
        "workload": {"batching", "tensor", "util"},
        "sched": {"batching", "tensor", "util"},
        "nn": {"batching", "parallel", "tensor", "util"},
        "serving": {"batching", "nn", "parallel", "sched", "tensor", "util"},
        "core": {"batching", "nn", "parallel", "sched", "serving", "tensor",
                 "text", "util", "workload"},
    }
    INCLUDE_RE = re.compile(r'#\s*include\s*"([a-z]+)/[^"]+"')

    # Serving-internal refinement for the staged pipeline: file stem ->
    # serving stems it may include (its own stem is always allowed). Clock
    # and the queue sit at the bottom, the backend above the cost model, the
    # pipeline above both, and the thin simulator wrapper on top. Stems not
    # listed here (future serving files) are only module-checked.
    SERVING_DAG = {
        "clock": set(),
        "cost_model": set(),
        "request_queue": set(),
        "backend": {"cost_model"},
        "pipeline": {"backend", "clock", "request_queue"},
        "simulator": {"cost_model", "pipeline"},
    }

    # Tensor-internal refinement for the kernel stack: the Tensor type at the
    # bottom; simd / strong_index / io directly above it; ops over simd;
    # kernel_ref (the scalar oracles) over ops; workspace (the per-thread
    # scratch arena) standalone over util/parallel only; gemm on top,
    # consuming ops, simd and the workspace. Stems not listed (future tensor
    # files) are only module-checked.
    TENSOR_DAG = {
        "tensor": set(),
        "strong_index": {"tensor"},
        "simd": {"tensor"},
        "io": {"tensor"},
        "workspace": set(),
        "ops": {"simd", "tensor"},
        "kernel_ref": {"ops", "tensor"},
        "gemm": {"ops", "simd", "tensor", "workspace"},
    }

    # Util-internal refinement: the contract headers (check's assertions,
    # lifetime's borrow annotations, numeric's bitwise/geometry/reassoc
    # annotations) are leaves every other util header may sit on, and they
    # include nothing themselves — an annotation header that pulls in I/O
    # would tax every TU in the tree. csv/stats ride on lifetime's
    # TCB_LIFETIME_BOUND; table renders csv. Stems not listed (future util
    # files) are only module-checked.
    UTIL_DAG = {
        "check": set(),
        "env": set(),
        "lifetime": set(),
        "numeric": set(),
        "rng": set(),
        "timer": set(),
        "histogram": set(),
        "csv": {"lifetime"},
        "stats": {"lifetime"},
        "table": {"csv", "lifetime"},
    }

    # Batching-internal refinement: Request is the leaf datum; batch_plan
    # (the Batcher interface and plan geometry) sits on it; packed_batch,
    # the SlotLedger (the slot grid and its occupancy) and the stats layer
    # consume plans; the SlotAllocator builds on the ledger's grid; the
    # concrete batchers see only the interface (a batcher that peeks at another
    # batcher's internals cannot be swapped by the factory), and the factory
    # alone sees them all. Stems not listed (future batching files) are only
    # module-checked.
    BATCHING_DAG = {
        "request": set(),
        "batch_plan": {"request"},
        "packed_batch": {"batch_plan"},
        "slot_ledger": {"batch_plan"},
        "slot_allocator": {"batch_plan", "slot_ledger"},
        "stats": {"batch_plan"},
        "concat_batcher": {"batch_plan"},
        "naive_batcher": {"batch_plan"},
        "slotted_batcher": {"batch_plan"},
        "turbo_batcher": {"batch_plan"},
        "factory": {"batch_plan", "concat_batcher", "naive_batcher",
                    "slotted_batcher", "turbo_batcher"},
    }

    # Sched-internal refinement: the Scheduler interface (and the shared
    # admission sanitizer evict_unschedulable) at the bottom; the policies —
    # baselines, DAS, the offline bound — side by side above it, blind to
    # each other so a policy comparison never measures a hidden dependency;
    # slotted DAS extends DAS; the factory on top. Stems not listed (future
    # sched files) are only module-checked.
    SCHED_DAG = {
        "scheduler": set(),
        "baselines": {"scheduler"},
        "das": {"scheduler"},
        "slotted_das": {"das", "scheduler"},
        "offline_bound": {"scheduler"},
        "factory": {"baselines", "das", "scheduler", "slotted_das"},
    }

    # module -> its internal stem-level DAG (same shape as DAG, keyed by file
    # stem). The include pattern is derived from the module name.
    SUBMODULE_DAGS = {"serving": SERVING_DAG, "tensor": TENSOR_DAG,
                      "util": UTIL_DAG, "batching": BATCHING_DAG,
                      "sched": SCHED_DAG}

    def applies_to(self, path: str) -> bool:
        parts = path.split("/")
        return len(parts) >= 3 and parts[0] == "src" and parts[1] in self.DAG

    def check(self, sf: SourceFile) -> list[Finding]:
        module = sf.effective_path.split("/")[1]
        allowed = self.DAG[module] | {module}
        stem = os.path.splitext(os.path.basename(sf.effective_path))[0]
        sub_dag = self.SUBMODULE_DAGS.get(module)
        sub_allowed = None
        sub_include_re = None
        if sub_dag is not None and stem in sub_dag:
            sub_allowed = sub_dag[stem] | {stem}
            sub_include_re = re.compile(
                r'#\s*include\s*"' + module + r'/(\w+)\.hpp"')
        out = []
        # Includes survive stripping, but the quoted path does not -- read the
        # raw lines and skip ones that are commented out via the stripped view.
        for idx, (raw, stripped) in enumerate(
                zip(sf.raw_lines, sf.lines), start=1):
            if "#" not in stripped:
                continue
            m = self.INCLUDE_RE.search(raw)
            if not m:
                continue
            target = m.group(1)
            if (target in self.DAG and target not in allowed
                    and not sf.suppressed(self.name, idx)):
                out.append(Finding(
                    self.name, sf.path, idx,
                    f"module '{module}' may not include '{target}' "
                    f"(allowed: {', '.join(sorted(allowed))})"))
                continue
            if sub_allowed is None:
                continue
            sm = sub_include_re.search(raw)
            if not sm:
                continue
            starget = sm.group(1)
            if (starget in sub_dag and starget not in sub_allowed
                    and not sf.suppressed(self.name, idx)):
                out.append(Finding(
                    self.name, sf.path, idx,
                    f"{module}-internal layering: '{stem}' may not include "
                    f"'{module}/{starget}.hpp' (allowed: "
                    f"{', '.join(sorted(sub_allowed))})"))
        return out


@register
class EngineBehindBackend(Rule):
    """The serving pipeline sees the engine only through ExecutionBackend.

    Stages that include nn/model.hpp directly re-couple scheduling policy
    to one concrete engine; the backend interface is what lets tests swap
    in the recording/null engines.

    Violation (in src/serving/pipeline.cpp):
        #include "nn/model.hpp"
    Clean:
        #include "serving/backend.hpp"   // talk to ExecutionBackend
    """

    name = "engine-behind-backend"
    description = ("within src/serving/ only the execution-backend layer "
                   "(backend.*, cost_model.*) may include the engine headers "
                   "nn/model.hpp / nn/classifier.hpp; the pipeline's stages "
                   "stay engine-agnostic behind ExecutionBackend "
                   "(DESIGN.md §10)")
    ALLOWED = ("src/serving/backend.hpp", "src/serving/backend.cpp",
               "src/serving/cost_model.hpp", "src/serving/cost_model.cpp")
    PATTERN = re.compile(r'#\s*include\s*"nn/(model|classifier)\.hpp"')

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/serving/") and path not in self.ALLOWED

    def check(self, sf: SourceFile) -> list[Finding]:
        out = []
        # Same raw/stripped split as include-layering: the include path is
        # blanked in the stripped view, comments are blanked in the raw one.
        for idx, (raw, stripped) in enumerate(
                zip(sf.raw_lines, sf.lines), start=1):
            if "#" not in stripped:
                continue
            if self.PATTERN.search(raw) and not sf.suppressed(self.name, idx):
                out.append(Finding(
                    self.name, sf.path, idx,
                    "serving code outside the backend layer includes an "
                    "engine header; route execution through ExecutionBackend "
                    "(serving/backend.hpp)"))
        return out
