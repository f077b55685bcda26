"""The one rejection type of the library."""


class Rejected(ValueError):
    """A query refused on mathematical grounds.

    `reason` says why; `citation` names the table or theorem that decides
    it, or is empty when the caller's context supplies one.
    """

    def __init__(self, reason: str, citation: str = ""):
        super().__init__(reason)
        self.reason = reason
        self.citation = citation
