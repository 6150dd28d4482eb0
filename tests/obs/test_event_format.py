"""EventMark fixed-width formatting: columns align for any actor/time."""

from repro.obs.events import EventMark


def _colon_column(line: str) -> int:
    return line.index(": ")


class TestEventMarkStr:
    def test_basic_shape(self):
        s = str(EventMark(12.5, "AM_F", "addWorker"))
        assert s == "[       12.50]         AM_F: addWorker"

    def test_detail_appended(self):
        s = str(EventMark(1.0, "AM_F", "addWorker", {"count": 2}))
        assert s.endswith("addWorker {'count': 2}")

    def test_columns_align_for_large_times_and_long_actors(self):
        marks = [
            EventMark(0.0, "AM_F", "a"),
            EventMark(123456.78, "AM_F", "b"),          # ≥ 6 digit time
            EventMark(999999999.99, "AM_app.filter.W10", "c"),  # 12-char actor at 9 digits
            EventMark(5.0, "GM", "d"),
        ]
        columns = {_colon_column(str(m)) for m in marks}
        assert len(columns) == 1, [str(m) for m in marks]

    def test_overlong_actor_is_tail_truncated(self):
        mark = EventMark(1.0, "AM_verylongname.filter.W10", "x")
        s = str(mark)
        actor_field = s[s.index("]") + 2 : s.index(": ")]
        assert len(actor_field) == EventMark.ACTOR_WIDTH
        assert actor_field.startswith("~")
        # the distinguishing suffix survives truncation
        assert actor_field.endswith(".W10")
        assert _colon_column(s) == _colon_column(str(EventMark(1.0, "GM", "x")))
