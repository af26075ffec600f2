"""What a real frame may weigh beyond the wire model, computed independently.

DESIGN.md Section 4.5: a frame is exactly as long as the model's
``byte_size`` plus one type-tag byte per ``int``/``float``/``str``
application value plus the multi-byte excess of non-ASCII text.  The
codec derives ``byte_size`` from the bytes it wrote; this module walks
the *message* instead, so the two can be held against each other.
"""

from dataclasses import fields, is_dataclass

from repro.protocols.wire import WireCodec


def frame_excess(message) -> int:
    """Tag bytes plus UTF-8 excess of every field of ``message``."""
    excess = 0
    for field in fields(message):
        item = getattr(message, field.name)
        if field.name == "value" and not (item is None or isinstance(item, bool)):
            excess += 1
        if isinstance(item, str):
            excess += len(item.encode()) - len(item)
        elif is_dataclass(item):
            excess += frame_excess(item)
        elif isinstance(item, tuple):
            excess += sum(frame_excess(sub) for sub in item if is_dataclass(sub))
    return excess


class AuditedCodec(WireCodec):
    """A codec that checks every frame it produces against the model."""

    def __init__(self, delta: bool = True) -> None:
        super().__init__(delta)
        self.frames = 0
        self.frame_bytes = 0
        self.model_bytes = 0

    def encode(self, src, dst, message):
        frame = super().encode(src, dst, message)
        assert type(frame.data) is bytes
        assert len(frame.data) - frame.byte_size == frame_excess(message), message
        self.frames += 1
        self.frame_bytes += len(frame.data)
        self.model_bytes += frame.byte_size
        return frame
