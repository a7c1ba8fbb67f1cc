"""Instrumentation installed by the worker from outside the program.

Two modes, never both in one process:

- ``PhaseTimers`` (untraced runs): one timer around each phase entry point
  (``training.ce_pretrain``, ``training.train_gan``,
  ``training.grad_norm_probe``, ``cli.decode_split``) plus a marker that
  notes the first training or decoding call, which ends set-up.  The marker
  removes itself after that first call.
  It also times units of work that repeat within a run (each caption's step
  and each Adam step of ``ce_pretrain``, each decoder call) and notes
  the time of every captioner bind outside them, for the noise-floor times
  in ``run.py``; that costs about a microsecond per bind or unit, each of
  which starts 0.1 to 10 milliseconds of work.  With ``setup_only`` the
  marker ends the process's work at the first call by raising
  ``SetupDone``.
- ``Tracer`` (traced runs): a span around every public function of the
  ``seqgan`` layers and around the layer-boundary methods of the bound model
  classes, plus counters for tapes and tape nodes.

Patching rule: a function is replaced where its defining module binds it and
in every ``seqgan`` module that imported it by name (``training`` and ``cli``
do ``from .captioner import greedy_decode, ...``).  Methods are replaced on
the class, which every importer shares.
"""

from __future__ import annotations

import array
import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from statistics import quantiles

LAYERS = ("autodiff", "captioner", "discriminator", "training", "metrics", "data", "cli")

# Methods spanned on the bound model classes.  Other public methods
# (embed_token, word_dist, ...) run inside these and count as their self time.
CLASS_METHODS = {
    ("captioner", "BoundCaptioner"): ("__init__", "step", "sequence_log_prob",
                                      "sequence_log_prob_and_logits"),
    ("discriminator", "BoundDiscriminator"): ("__init__", "forward", "score_sequence",
                                              "score_soft_rows"),
}

# Public autodiff operations run about 1.7M times in one default training run.
# They are counted through the tape (one node per operation) rather than
# spanned, which keeps spans in the thousands and the overhead small.
AUTODIFF_SPANNED = ("backward",)

# Decoders whose calls are timed as keyed units in untraced runs; a call's
# work is fixed by its output length.
DECODERS = ("greedy_decode", "sample_sentence", "ensemble_decode")

# Calls that end set-up: the first training or decoding call of a command.
FIRST_WORK = (("training", "ce_pretrain"), ("training", "train_gan"),
              ("training", "grad_norm_probe"), ("captioner", "greedy_decode"),
              ("captioner", "sample_sentence"), ("captioner", "ensemble_decode"))


def _modules():
    return {name: sys.modules[f"seqgan.{name}"] for name in LAYERS}


def _rebind(modules, owner, name, original, replacement):
    """Bind ``replacement`` where ``original`` is bound in any seqgan module."""
    setattr(owner, name, replacement)
    for mod in modules.values():
        if mod is not owner and vars(mod).get(name) is original:
            setattr(mod, name, replacement)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# ---------------------------------------------------------------------------
# untraced: phase timers
# ---------------------------------------------------------------------------


class SetupDone(BaseException):
    """Ends a set-up-only process at its first work call.

    A ``BaseException``, so the command's own ``except Exception`` handler
    lets it through to the worker.
    """


class PhaseTimers:
    """Per-phase wall time and work counts for the end-to-end metrics."""

    def __init__(self):
        self.first_work_at = None
        self.phase_s = Counter()
        self.work = Counter()
        self.ce_final_nats = None
        # keyed units: group -> key -> durations in seconds
        self.units = {"ce": defaultdict(list), "decode": defaultdict(list)}
        self.marks = array.array("d")  # perf_counter at each mark, in order
        self._keyed_starts = set()  # marks that start a call timed by keyed units
        self.setup_only = False
        self._phase = None
        self._ce_unit = None  # [start, key] of the open CE unit

    def install(self):
        import seqgan.cli  # noqa: F401  (loads every layer module)

        mods = _modules()
        tr = mods["training"]

        def ce_done(args, kwargs, result):
            dataset = _arg(args, kwargs, 1, "dataset")
            epochs = _arg(args, kwargs, 2, "epochs")
            self.work["ce_captions"] += epochs * sum(len(refs) for _, refs in dataset)
            curve = result[1]
            if curve:
                self.ce_final_nats = curve[-1]

        def gan_done(args, kwargs, result):
            dataset = _arg(args, kwargs, 2, "dataset")
            cfg = _arg(args, kwargs, 3, "cfg")
            d_epochs = cfg.d_pretrain_epochs if cfg.reward != "cider" else 0
            self.work["gan_images"] += (d_epochs + cfg.epochs) * len(dataset)

        def probe_done(args, kwargs, result):
            self.work["probe_batches"] += _arg(args, kwargs, 4, "n_batches")

        def decode_done(args, kwargs, result):
            self.work["eval_images"] += len(_arg(args, kwargs, 1, "examples"))

        self._time(mods, tr, "ce_pretrain", ce_done)
        self._time(mods, tr, "train_gan", gan_done)
        self._time(mods, tr, "grad_norm_probe", probe_done)
        self._time(mods, mods["cli"], "decode_split", decode_done)
        self._install_units(mods)
        # installed last, so the marker wraps the timers and restores them
        self._install_first_work_marker(mods)

    def _time(self, mods, owner, name, done):
        fn = getattr(owner, name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            outer, self._phase = self._phase, name
            if name == "ce_pretrain":
                self._ce_unit = [t0, "ce-start"]
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._close_ce_unit(t1)
                self._phase = outer
            self.phase_s[name] += t1 - t0
            if name == "ce_pretrain":
                self._cut_out(t0, t1)
            done(args, kwargs, result)
            return result

        _rebind(mods, owner, name, fn, timed)

    def _install_units(self, mods):
        """Time the work that repeats exactly within a run.

        Keyed CE units (group ``ce``) cover each ``ce_pretrain`` call: a
        caption unit runs from binding a captioner onto a fresh tape to the
        next bind or Adam step (bind, teacher-forced log-probability,
        backward and gradient accumulation of one caption), an ``adam`` unit
        from an Adam step to the next bind or the end of the phase, and a
        ``ce-start`` unit from the start of the phase to its first bind.
        Model shapes are fixed, so a caption's unit, and every Adam step,
        does the same work in every epoch and iteration.

        Keyed decode units (group ``decode``): each call of a decoder
        (``DECODERS``), keyed by the decoder, its output length and whether
        it ended on EOS, which fix its steps; every step does the same work
        on the same shapes.

        Marks: the start and end of each call timed by keyed units and every
        captioner bind outside them.  Every iteration of a run executes the
        same calls, so the stretch between mark k and mark k+1 does the same
        work in each of them.
        """
        cls = mods["captioner"].BoundCaptioner
        bind, log_prob = cls.__init__, cls.sequence_log_prob

        @functools.wraps(bind)
        def timed_bind(bound, *args, **kwargs):
            now = time.perf_counter()
            if self._phase == "ce_pretrain":
                self._close_ce_unit(now)
                self._ce_unit = [now, None]
            elif self._phase != "decode":
                self.marks.append(now)
            bind(bound, *args, **kwargs)

        @functools.wraps(log_prob)
        def keyed_log_prob(bound, image_feats, seq):
            if self._ce_unit is not None and self._ce_unit[1] is None:
                self._ce_unit[1] = " ".join(map(str, seq.tokens))
            return log_prob(bound, image_feats, seq)

        cls.__init__, cls.sequence_log_prob = timed_bind, keyed_log_prob

        tr = mods["training"]
        adam = tr.adam_step

        @functools.wraps(adam)
        def adam_step(*args, **kwargs):
            if self._phase == "ce_pretrain":
                now = time.perf_counter()
                self._close_ce_unit(now)
                self._ce_unit = [now, "adam"]
            return adam(*args, **kwargs)

        _rebind(mods, tr, "adam_step", adam, adam_step)

        for name in DECODERS:
            self._key_decoder(mods, mods["captioner"], name)

    def _key_decoder(self, mods, owner, name):
        fn = getattr(owner, name)

        @functools.wraps(fn)
        def keyed(*args, **kwargs):
            outer, self._phase = self._phase, "decode"
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._phase = outer
            seq = result[0] if isinstance(result, tuple) else result
            self._cut_out(t0, t1)
            self.units["decode"][f"{name}:{len(seq.tokens)}:{seq.terminated}"].append(t1 - t0)
            return result

        _rebind(mods, owner, name, fn, keyed)

    def _close_ce_unit(self, now):
        unit, self._ce_unit = self._ce_unit, None
        if unit is not None and unit[1] is not None:
            self.units["ce"][unit[1]].append(now - unit[0])

    def _cut_out(self, start, end):
        """Leave a call timed by keyed units out of the segments."""
        self.marks.extend((start, end))
        self._keyed_starts.add(start)

    def segments(self, end):
        """Durations between set-up's end, every later mark, and ``end``.

        The duration of a call timed by keyed units is None.
        """
        edges = [self.first_work_at if self.first_work_at is not None else end]
        edges += [t for t in self.marks if t > edges[0]]
        edges.append(end)
        return [None if a in self._keyed_starts else b - a
                for a, b in zip(edges, edges[1:])]

    def _install_first_work_marker(self, mods):
        originals = []

        def restore():
            for owner, name, fn, marker in originals:
                _rebind(mods, owner, name, marker, fn)

        for mod_name, name in FIRST_WORK:
            owner = mods[mod_name]
            fn = getattr(owner, name)

            def make(fn):
                @functools.wraps(fn)
                def marker(*args, **kwargs):
                    if self.first_work_at is None:
                        self.first_work_at = time.perf_counter()
                        restore()
                        if self.setup_only:
                            raise SetupDone
                    return fn(*args, **kwargs)
                return marker

            marker = make(fn)
            originals.append((owner, name, fn, marker))
            _rebind(mods, owner, name, fn, marker)


# ---------------------------------------------------------------------------
# traced: spans and counters
# ---------------------------------------------------------------------------


class Tracer:
    """Spans (name, start, end, parent) kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack = [-1]
        self.counts = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        nid = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts[i] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        import seqgan.cli  # noqa: F401  (loads every layer module)

        mods = _modules()
        counts = self.counts
        after = {
            "autodiff.backward": self._after_backward,
            "captioner.greedy_decode": self._after_decode,
            "captioner.ensemble_decode": self._after_decode,
            "captioner.sample_sentence": self._after_sample,
            "training.scst_grad": self._after_scst,
            "data.save_checkpoint": self._after_checkpoint_io,
            "data.load_checkpoint": self._after_checkpoint_io,
        }
        for mod_name, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                if mod_name == "autodiff" and name not in AUTODIFF_SPANNED:
                    continue
                span = f"{mod_name}.{name}"
                _rebind(mods, mod, name, fn, self.wrap(span, fn, after.get(span)))

        for (mod_name, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(mods[mod_name], cls_name)
            for meth in methods:
                span = f"{mod_name}.{cls_name}.{meth}"
                hook = self._after_bind(mod_name) if meth == "__init__" else None
                setattr(cls, meth, self.wrap(span, getattr(cls, meth), hook))

        tape_cls = mods["autodiff"].Tape
        tape_init, record = tape_cls.__init__, tape_cls._record

        def init(tape, *args, **kwargs):
            counts["tapes"] += 1
            tape_init(tape, *args, **kwargs)

        def count_record(tape, *args, **kwargs):
            counts["nodes"] += 1
            return record(tape, *args, **kwargs)

        tape_cls.__init__ = init
        tape_cls._record = count_record

    def _after_backward(self, args, kwargs, result):
        # nodes on a tape that ran backward; read now, so no tape is kept alive
        self.counts["backward_nodes"] += len(_arg(args, kwargs, 0, "tape").nodes)

    def _after_decode(self, args, kwargs, result):
        self.counts["tokens"] += len(result.tokens)

    def _after_sample(self, args, kwargs, result):
        self.counts["tokens"] += len(result[0].tokens)

    def _after_scst(self, args, kwargs, result):
        self.counts["scst_draws"] += 1
        self.counts["scst_zero_adv"] += result[1].advantage == 0.0

    def _after_checkpoint_io(self, args, kwargs, result):
        self.counts["checkpoint_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _after_bind(self, layer):
        key = f"{layer}_bind_bytes"

        def hook(args, kwargs, result):
            params = _arg(args, kwargs, 2, "params")
            self.counts[key] += sum(a.nbytes for a in params.arrays.values())
        return hook

    # -- results -------------------------------------------------------------

    def span_stats(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, durations."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                covered[p] += dur[i]
        stats = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                     "durations": []})
        for i in range(n):
            s = stats[self.names[self.span_name[i]]]
            s["calls"] += 1
            s["incl_s"] += dur[i]
            s["self_s"] += dur[i] - covered[i]
            s["durations"].append(dur[i])
        return dict(stats)

    def write_spans(self, path):
        """One line per span: name, start, end, parent index."""
        with open(path, "w") as fh:
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i]!r}\t"
                         f"{self.span_end[i]!r}\t{self.span_parent[i]}\n")


def layer_metrics(stats: dict, counts: Counter) -> dict:
    """The per-layer metrics of one traced iteration (times are self time,
    except ``cli.split_metrics_s``, which is the whole per-epoch val eval)."""

    def calls(*names):
        return sum(stats[n]["calls"] for n in names if n in stats)

    def self_s(*names):
        return sum((stats[n]["self_s"] for n in names if n in stats), 0.0)

    def pct_ms(name, q):
        d = stats.get(name, {}).get("durations", [])
        if not d:
            return 0.0
        if len(d) == 1:
            return d[0] * 1e3
        return quantiles(d, n=100, method="inclusive")[q - 1] * 1e3

    def share(num, den):
        return num / den if den else 0.0

    bc, bd = "captioner.BoundCaptioner", "discriminator.BoundDiscriminator"
    return {
        "autodiff.tapes": counts["tapes"],
        "autodiff.nodes": counts["nodes"],
        "autodiff.backward_calls": calls("autodiff.backward"),
        "autodiff.backward_s": self_s("autodiff.backward"),
        "autodiff.backward_node_share": share(counts["backward_nodes"], counts["nodes"]),
        "captioner.binds": calls(f"{bc}.__init__"),
        "captioner.bind_bytes": counts["captioner_bind_bytes"],
        "captioner.steps": calls(f"{bc}.step"),
        "captioner.step_s": self_s(f"{bc}.step"),
        "captioner.teacher_forced_calls": calls(f"{bc}.sequence_log_prob_and_logits"),
        "captioner.teacher_forced_s": self_s(f"{bc}.sequence_log_prob_and_logits",
                                             f"{bc}.sequence_log_prob",
                                             "captioner.log_prob"),
        "captioner.greedy_calls": calls("captioner.greedy_decode"),
        "captioner.greedy_s": self_s("captioner.greedy_decode"),
        "captioner.sample_calls": calls("captioner.sample_sentence"),
        "captioner.sample_s": self_s("captioner.sample_sentence"),
        "captioner.ensemble_calls": calls("captioner.ensemble_decode"),
        "captioner.ensemble_s": self_s("captioner.ensemble_decode"),
        "captioner.ensemble_ms_p50": pct_ms("captioner.ensemble_decode", 50),
        "captioner.ensemble_ms_p90": pct_ms("captioner.ensemble_decode", 90),
        "captioner.tokens": counts["tokens"],
        "discriminator.binds": calls(f"{bd}.__init__"),
        "discriminator.bind_bytes": counts["discriminator_bind_bytes"],
        "discriminator.hard_calls": calls(f"{bd}.score_sequence"),
        "discriminator.soft_calls": calls(f"{bd}.score_soft_rows", "discriminator.score_soft"),
        "discriminator.forward_s": self_s(f"{bd}.forward"),
        "discriminator.forward_ms_p50": pct_ms(f"{bd}.forward", 50),
        "training.ce_pretrain_s": self_s("training.ce_pretrain"),
        "training.train_gan_s": self_s("training.train_gan"),
        "training.d_objective_calls": calls("training.discriminator_objective"),
        "training.d_objective_s": self_s("training.discriminator_objective"),
        "training.scst_calls": calls("training.scst_grad"),
        "training.scst_s": self_s("training.scst_grad", "training.sequence_reward"),
        "training.scst_zero_adv_share": share(counts["scst_zero_adv"], counts["scst_draws"]),
        "training.gumbel_calls": calls("training.gumbel_grad"),
        "training.gumbel_s": self_s("training.gumbel_grad", "training.gumbel_unroll",
                                    "training.gumbel_noise", "training.gumbel_sample"),
        "training.adam_calls": calls("training.adam_step"),
        "training.adam_s": self_s("training.adam_step"),
        "training.probe_s": self_s("training.grad_norm_probe"),
        "metrics.cider_calls": calls("metrics.cider_d"),
        "metrics.cider_s": self_s("metrics.cider_d"),
        "metrics.bleu4_s": self_s("metrics.bleu4"),
        "metrics.rouge_l_s": self_s("metrics.rouge_l"),
        "metrics.semantic_s": self_s("metrics.semantic_score"),
        "metrics.fit_idf_s": self_s("metrics.fit_idf"),
        "metrics.fit_cca_s": self_s("metrics.fit_cca"),
        "data.generate_dataset_s": self_s("data.generate_dataset"),
        "data.load_checkpoint_s": self_s("data.load_checkpoint"),
        "data.save_checkpoint_s": self_s("data.save_checkpoint"),
        "data.checkpoint_bytes": counts["checkpoint_bytes"],
        "cli.split_metrics_s": stats.get("cli.split_metrics", {}).get("incl_s", 0.0),
    }


# Metrics that must repeat exactly for one seed and one version of the code.
COUNT_METRICS = (
    "autodiff.tapes", "autodiff.nodes", "autodiff.backward_calls",
    "autodiff.backward_node_share", "captioner.binds", "captioner.bind_bytes",
    "captioner.steps", "captioner.teacher_forced_calls", "captioner.greedy_calls",
    "captioner.sample_calls", "captioner.ensemble_calls", "captioner.tokens",
    "discriminator.binds", "discriminator.bind_bytes", "discriminator.hard_calls",
    "discriminator.soft_calls", "training.d_objective_calls", "training.scst_calls",
    "training.scst_zero_adv_share", "training.gumbel_calls", "training.adam_calls",
    "metrics.cider_calls", "data.checkpoint_bytes",
)
