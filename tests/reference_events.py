"""The per-event writer that ``TemporalEdgeList.write``'s byte kernel
replaced, kept for the tests only: the canonical bytes written by the
library must equal the ones written here, for every target.
"""

from linkdecay.events import PathOrFile, TemporalEdgeList, _opened


def write_events(tel: TemporalEdgeList, target: PathOrFile) -> None:
    """One f-string per event: ``src<TAB>dst<TAB>+1|-1<TAB>time``."""
    ids = tel.node_ids
    with _opened(target, "w") as handle:
        handle.writelines(
            f"{ids[u]}\t{ids[v]}\t{'+1' if s > 0 else '-1'}\t{t}\n"
            for u, v, s, t in zip(tel.src.tolist(), tel.dst.tolist(),
                                  tel.sign.tolist(), tel.time.tolist()))
